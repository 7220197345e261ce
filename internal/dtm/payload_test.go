package dtm

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/tracegen"
	"github.com/social-sensing/sstd/internal/workqueue"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden task payloads and outputs under testdata")

// encodeJob is encodeTasks into a buffer of its own.
func encodeJob(chunks [][]socialsensing.Report, origin time.Time, interval time.Duration) ([][]byte, int, error) {
	var buf jobBuf
	intervals, err := encodeTasks(&buf, chunks, origin, interval)
	return buf.payloads, intervals, err
}

// goldenChunks are the fixtures behind testdata/task_v2_*.bin and
// output_v1_*.bin, on a one-minute grid from origin(). The retired
// task_v1_*.bin encode the same chunks one index per report.
func goldenChunks() map[string][]socialsensing.Report {
	at := func(d time.Duration, att socialsensing.Attitude) socialsensing.Report {
		return socialsensing.Report{
			Source: "s", Claim: "golden", Timestamp: origin().Add(d), Text: "never on the wire",
			Attitude: att, Uncertainty: 0.25, Independence: 0.5,
		}
	}
	return map[string][]socialsensing.Report{
		"empty":  nil,
		"single": {at(90*time.Second, socialsensing.Agree)},
		"unsorted": {
			at(5*time.Minute, socialsensing.Agree), at(2*time.Minute, socialsensing.Disagree),
			at(9*time.Minute, socialsensing.Agree), at(2*time.Minute, socialsensing.Agree),
			at(200*time.Minute, socialsensing.Disagree),
		},
		"before_origin": {at(-10*time.Minute, socialsensing.Agree), at(3*time.Minute, socialsensing.Disagree)},
		// The last slot's sum is zero; it must still be emitted, or the
		// series would end at minute 1.
		"neutral_last": {at(time.Minute, socialsensing.Agree), at(4*time.Minute, socialsensing.NoReport)},
	}
}

func goldenFile(t testing.TB, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// goldenDecodes are the fixtures behind testdata/decode_v1_*.bin: a
// decoder configuration and a job's merged per-interval sums, window 3.
// truth names the testdata/truth_v1_*.bin the task must be answered with.
func goldenDecodes() map[string]struct {
	cfg   core.DecoderConfig
	sums  []float64
	truth string
} {
	// Three clear phases: true for 30 intervals, false for 30, true again.
	phases := make([]float64, 90)
	for i := range phases {
		phases[i] = 1.5
		if i/30 == 1 {
			phases[i] = -1.5
		}
	}
	gaussian := core.DefaultDecoderConfig()
	gaussian.Emissions, gaussian.Thresholds = core.GaussianEmissions, nil
	return map[string]struct {
		cfg   core.DecoderConfig
		sums  []float64
		truth string
	}{
		"empty":  {cfg: core.DefaultDecoderConfig(), truth: "empty"},
		"single": {cfg: core.DefaultDecoderConfig(), sums: []float64{0.75}, truth: "single"},
		// The series is five intervals long although the last three sums
		// are zero: the highest interval always travels.
		"trailing_zero": {cfg: core.DefaultDecoderConfig(), sums: []float64{0, 0.81, 0, 0, 0}},
		"gaussian":      {cfg: gaussian, sums: phases, truth: "flips"},
	}
}

// TestGoldenPayloadsStable freezes the four layouts: re-encoding the
// fixtures must reproduce the checked-in bytes, and executing a checked-in
// task must reproduce the checked-in answer — a v2 task the very output
// its v1 twin was answered with, while the v1 twin itself is refused.
// Regenerate with -update only together with a version bump.
func TestGoldenPayloadsStable(t *testing.T) {
	for name, chunk := range goldenChunks() {
		payloads, intervals, err := encodeJob([][]socialsensing.Report{chunk}, origin(), time.Minute)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		task := goldenFile(t, "task_v2_"+name+".bin", payloads[0])
		if !bytes.Equal(payloads[0], task) {
			t.Errorf("%s: task payload %x, golden %x", name, payloads[0], task)
		}
		v1, err := os.ReadFile(filepath.Join("testdata", "task_v1_"+name+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		if out, err := ExecuteTask(context.Background(), v1); err == nil || !strings.Contains(err.Error(), "unknown version") {
			t.Errorf("%s: task v1 answered %x, %v; want it refused as an unknown version", name, out, err)
		}
		out, err := ExecuteTask(context.Background(), task)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := goldenFile(t, "output_v1_"+name+".bin", out); !bytes.Equal(out, want) {
			t.Errorf("%s: task output %x, golden %x", name, out, want)
		}
		got, err := foldOutputs(t, [][]byte{out}, intervals)
		if want := refMerge([]map[int]float64{refTaskSums(chunk, origin(), time.Minute)}); err != nil || !sameBits(got, want) {
			t.Errorf("%s: folded %v, %v, want %v", name, got, err, want)
		}
	}
	for name, g := range goldenDecodes() {
		// Through the merge, as submitDecode builds it: one scatter output
		// listing every interval.
		dense := make(map[int]float64, len(g.sums))
		for idx, v := range g.sums {
			dense[idx] = v
		}
		payload, n := mergeOutputs(nil, appendDecodeHeader(nil, 3, g.cfg), [][]byte{outputOf(dense)}, len(g.sums))
		// Appended to what a buffer already holds, the same bytes.
		held := []byte("scatter payloads")
		if again, _ := mergeOutputs(held, appendDecodeHeader(nil, 3, g.cfg), [][]byte{outputOf(dense)}, len(g.sums)); !bytes.Equal(again[len(held):], payload) {
			t.Errorf("%s: decode task appended to a buffer %x, alone %x", name, again[len(held):], payload)
		}
		task := goldenFile(t, "decode_v1_"+name+".bin", payload)
		if !bytes.Equal(payload, task) || n != len(g.sums) {
			t.Errorf("%s: decode task %x of %d intervals, golden %x of %d", name, payload, n, task, len(g.sums))
		}
		out, err := ExecuteTask(context.Background(), task)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.truth != "" {
			if want := goldenFile(t, "truth_v1_"+g.truth+".bin", out); !bytes.Equal(out, want) {
				t.Errorf("%s: truth %x, golden %x", name, out, want)
			}
		}
		// The answer is the timeline a decoder built from the same
		// configuration gives the same windowed series.
		series := make([]float64, len(g.sums))
		windowedSeries(series, g.sums, 3)
		dec, err := core.NewDecoder(g.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dec.Decode(series)
		if err != nil {
			t.Fatal(err)
		}
		est, err := decodeEstimates(out, n, "golden", origin(), time.Minute)
		if err != nil || len(est) != len(want) {
			t.Fatalf("%s: %d estimates, %v; want %d", name, len(est), err, len(want))
		}
		for i, e := range est {
			if e.Value != want[i] || e.Interval != i || !e.Start.Equal(origin().Add(time.Duration(i)*time.Minute)) {
				t.Fatalf("%s: estimate %d = %+v, want %v", name, i, e, want[i])
			}
		}
	}
}

// TestCodecMatchesMapReferenceBits runs a generated trace through encode,
// execute and fold for every shape the truth digests cover and requires
// the merged sums to equal the map-based reference bit for bit.
func TestCodecMatchesMapReferenceBits(t *testing.T) {
	gen, err := tracegen.New(tracegen.BostonBombing(), 11)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate(0.02)
	if err != nil {
		t.Fatal(err)
	}
	byClaim := tr.ReportsByClaim()
	for k, c := range tr.Claims {
		claim, reports := c.ID, byClaim[c.ID]
		if k%2 == 1 {
			reports = slices.Clone(reports)
			slices.Reverse(reports)
		}
		for _, tasks := range []int{1, 3, 4, 8} {
			for _, grid := range []time.Duration{time.Minute, time.Hour} {
				chunks := splitReports(reports, tasks)
				payloads, intervals, err := encodeJob(chunks, tr.Start, grid)
				if err != nil {
					t.Fatal(err)
				}
				outputs := make([][]byte, len(chunks))
				ref := make([]map[int]float64, len(chunks))
				for i, p := range payloads {
					if outputs[i], err = ExecuteTask(context.Background(), p); err != nil {
						t.Fatal(err)
					}
					ref[i] = refTaskSums(chunks[i], tr.Start, grid)
				}
				got, err := foldOutputs(t, outputs, intervals)
				if err != nil {
					t.Fatal(err)
				}
				if want := refMerge(ref); !sameBits(got, want) {
					t.Fatalf("claim %s tasks=%d grid=%s: merged sums differ from the map reference", claim, tasks, grid)
				}
			}
		}
	}
}

// TestScatterMatchesMapReference is the property behind task v2's run
// column: over generated chunks of every shape it has to get right, the
// executed scatter task answers byte for byte the output of the map-based
// reference's sums — every slot whose sum is non-zero, and the highest.
func TestScatterMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// at makes one report per minute offset, a score of wildly varying
	// magnitude each, so a changed addend order shows in the low bits.
	at := func(minutes ...float64) []socialsensing.Report {
		out := make([]socialsensing.Report, len(minutes))
		for i, m := range minutes {
			out[i] = socialsensing.Report{
				Claim: "p", Timestamp: origin().Add(time.Duration(m * float64(time.Minute))),
				Attitude: socialsensing.Attitude(1 - 2*rng.Intn(2)), Uncertainty: rng.Float64(),
				Independence: rng.Float64() * math.Pow(10, float64(rng.Intn(9)-4)),
			}
		}
		return out
	}
	spread := func(n int, lo, hi float64) []float64 {
		m := make([]float64, n)
		for i := range m {
			m[i] = lo + rng.Float64()*(hi-lo)
		}
		return m
	}
	repeat := func(m float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = m
		}
		return out
	}
	shapes := []struct {
		name string
		gen  func() []socialsensing.Report
	}{
		{"empty", func() []socialsensing.Report { return nil }},
		{"single report", func() []socialsensing.Report { return at(rng.Float64() * 100) }},
		{"sorted", func() []socialsensing.Report {
			m := spread(1+rng.Intn(500), 0, 200)
			slices.Sort(m)
			return at(m...)
		}},
		{"shuffled", func() []socialsensing.Report { return at(spread(1+rng.Intn(500), 0, 200)...) }},
		{"one slot", func() []socialsensing.Report {
			k := float64(rng.Intn(50))
			return at(spread(1+rng.Intn(300), k, k+0.999)...)
		}},
		{"alternating slots", func() []socialsensing.Report {
			m := make([]float64, 2+rng.Intn(100))
			for i := range m {
				m[i] = float64(7 + i%2)
			}
			return at(m...)
		}},
		{"before the origin", func() []socialsensing.Report {
			m := spread(1+rng.Intn(200), -30, 10)
			slices.Sort(m)
			return at(m...)
		}},
		{"duplicate timestamps", func() []socialsensing.Report {
			m := make([]float64, 0, 64)
			for len(m) < 60 {
				m = append(m, repeat(float64(rng.Intn(20)), 1+rng.Intn(4))...)
			}
			return at(m...)
		}},
		// zigzag(±63) and zigzag(-64) take one byte, zigzag(64) and
		// zigzag(-65) two.
		{"Δ across the varint boundary", func() []socialsensing.Report {
			return at(0, 63, 126, 63, 127, 63, 128, 64, 0, 129, 64)
		}},
		{"counts across the varint boundary", func() []socialsensing.Report {
			var m []float64
			for _, n := range []int{127, 128, 1, 129, 255, 256} {
				m = append(m, repeat(float64(rng.Intn(10)), n)...)
			}
			return at(m...)
		}},
	}
	for trial := 0; trial < 20; trial++ {
		for _, shape := range shapes {
			chunk := shape.gen()
			payloads, _, err := encodeJob([][]socialsensing.Report{chunk}, origin(), time.Minute)
			if err != nil {
				t.Fatalf("%s: %v", shape.name, err)
			}
			out, err := ExecuteTask(context.Background(), payloads[0])
			if err != nil {
				t.Fatalf("%s: %v", shape.name, err)
			}
			ref, top := refTaskSums(chunk, origin(), time.Minute), 0
			for idx := range ref {
				top = max(top, idx)
			}
			for idx, sum := range ref {
				if sum == 0 && idx != top {
					delete(ref, idx)
				}
			}
			if want := outputOf(ref); !bytes.Equal(out, want) {
				t.Fatalf("%s, trial %d: output %x, map reference %x", shape.name, trial, out, want)
			}
		}
	}
}

// TestDecodersRejectMalformed hands both decoders the damage the wire
// layer's parsers are held to. None may be accepted, panic or allocate
// from an unchecked length.
func TestDecodersRejectMalformed(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		b := []byte{payloadVersion}
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	f64 := func(b []byte, vs ...float64) []byte {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	zz := func(d int64) byte { return byte(uint64(d<<1) ^ uint64(d>>63)) } // |d| < 64
	// A scatter task: n and the scores, base, span and the run count, then
	// the run column's bytes.
	scatter := func(n uint64, scores []float64, base, span, runs uint64, col ...byte) []byte {
		b := f64(binary.AppendUvarint([]byte{kindScatter}, n), scores...)
		for _, v := range []uint64{base, span, runs} {
			b = binary.AppendUvarint(b, v)
		}
		return append(b, col...)
	}
	tasks := map[string][]byte{
		"empty":                      nil,
		"unknown kind":               {4, 0, 0, 0, 0},
		"task v1":                    f64(append(uv(1, 0, 1), 0), 1),
		"truncated header":           {kindScatter, 0x80},
		"n over bytes left":          f64(binary.AppendUvarint([]byte{kindScatter}, 3), 1, 1),
		"huge n":                     binary.AppendUvarint([]byte{kindScatter}, math.MaxUint64),
		"no header after scores":     f64([]byte{kindScatter, 1}, 1),
		"span over cap":              scatter(1, []float64{1}, 0, maxSpan+1, 1, zz(0), 1),
		"base near overflow":         scatter(1, []float64{1}, math.MaxInt64, 1, 1, zz(0), 1),
		"index below base":           scatter(1, []float64{1}, 5, 2, 1, zz(-1), 1),
		"index past span":            scatter(1, []float64{1}, 5, 2, 1, zz(2), 1),
		"index with no span":         scatter(1, []float64{1}, 5, 0, 1, zz(0), 1),
		"walk leaves the span":       scatter(2, []float64{1, 1}, 5, 2, 2, zz(1), 1, zz(-2), 1),
		"count 0":                    scatter(1, []float64{1}, 0, 1, 1, zz(0), 0),
		"counts under n":             scatter(2, []float64{1, 1}, 0, 2, 1, zz(0), 1),
		"counts over n":              scatter(2, []float64{1, 1}, 0, 2, 2, zz(0), 2, zz(1), 1),
		"huge count":                 scatter(1, []float64{1}, 0, 1, 1, append([]byte{zz(0)}, binary.AppendUvarint(nil, math.MaxUint64)...)...),
		"runs over n":                scatter(1, []float64{1}, 0, 1, 2, zz(0), 1, zz(0), 1),
		"runs for no reports":        scatter(0, nil, 0, 1, 1, zz(0), 1),
		"no runs":                    scatter(1, []float64{1}, 0, 1, 0),
		"runs over bytes left":       scatter(2, []float64{1, 1}, 0, 2, 2, zz(0), 1, zz(1)),
		"truncated run":              scatter(1, []float64{1}, 0, 1, 1, zz(0), 0x80),
		"truncated second run":       scatter(2, []float64{1, 1}, 0, 2, 2, zz(0), 1, 0x80, 0x80),
		"trailing bytes":             scatter(1, []float64{1}, 0, 1, 1, zz(0), 1, 0),
		"trailing bytes, no reports": scatter(0, nil, 0, 0, 0, 0),
		"score NaN":                  scatter(1, []float64{math.NaN()}, 0, 1, 1, zz(0), 1),
		"score Inf mid-run":          scatter(3, []float64{1, math.Inf(-1), 1}, 0, 1, 1, zz(0), 3),
		// Two runs of the span's two slots, the second back at the first:
		// slot 6 gets 1+2, slot 5 gets 4.
		"well-formed control": scatter(3, []float64{1, 2, 4}, 5, 2, 2, zz(1), 2, zz(-1), 1),
	}
	// A decode task: kind, five uvarints (window, emission kind, iteration
	// bound, freeze flag, threshold count), the training floats and the
	// thresholds, then the merged sums.
	decodeTask := func(window, emissions uint64, thresholds []float64, tolerance float64, freeze uint64, sums []byte) []byte {
		b := []byte{kindDecode}
		for _, v := range []uint64{window, emissions, 100, freeze, uint64(len(thresholds))} {
			b = binary.AppendUvarint(b, v)
		}
		return append(f64(f64(b, tolerance, 1e-3, 1e-3, 1e-3), thresholds...), sums...)
	}
	th := []float64{0.5, 2}
	sums := outputOf(map[int]float64{0: 1, 1: -1, 2: 1})
	tasks["decode: truncated header"] = decodeTask(3, 1, th, 1e-6, 1, sums)[:30]
	tasks["decode: short of a threshold"] = decodeTask(3, 1, th, 1e-6, 1, nil)[:53]
	tasks["decode: window 0"] = decodeTask(0, 1, th, 1e-6, 1, sums)
	tasks["decode: window over cap"] = decodeTask(maxSpan+1, 1, th, 1e-6, 1, sums)
	tasks["decode: unknown emission kind"] = decodeTask(3, 3, th, 1e-6, 1, sums)
	tasks["decode: huge emission kind"] = decodeTask(3, math.MaxUint64, th, 1e-6, 1, sums)
	tasks["decode: threshold count over bytes left"] = f64(binary.AppendUvarint([]byte{kindDecode, 3, 1, 100, 1}, 1<<40), 1e-6, 1e-3, 1e-3, 1e-3, 0.5)
	tasks["decode: iteration bound out of range"] = f64([]byte{kindDecode, 3, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 0}, 1e-6, 1e-3, 1e-3, 1e-3)
	tasks["decode: thresholds not ascending"] = decodeTask(3, 1, []float64{2, 0.5}, 1e-6, 1, sums)
	tasks["decode: threshold NaN"] = decodeTask(3, 1, []float64{0.5, math.NaN()}, 1e-6, 1, sums)
	tasks["decode: tolerance Inf"] = decodeTask(3, 1, th, math.Inf(1), 1, sums)
	tasks["decode: freeze flag 2"] = decodeTask(3, 1, th, 1e-6, 2, sums)
	tasks["decode: no sums"] = decodeTask(3, 1, th, 1e-6, 1, nil)
	tasks["decode: sums of unknown version"] = decodeTask(3, 1, th, 1e-6, 1, []byte{2, 0})
	tasks["decode: pair count over bytes left"] = decodeTask(3, 1, th, 1e-6, 1, f64(append(uv(3), 1), 1))
	tasks["decode: indices not ascending"] = decodeTask(3, 1, th, 1e-6, 1, f64(append(f64(append(uv(2), 3), 1), 0), 1))
	tasks["decode: index over cap"] = decodeTask(3, 1, th, 1e-6, 1, f64(binary.AppendUvarint(uv(1), maxSpan), 1))
	tasks["decode: sum NaN"] = decodeTask(3, 1, th, 1e-6, 1, f64(append(uv(1), 0), math.NaN()))
	tasks["decode: trailing bytes"] = append(decodeTask(3, 1, th, 1e-6, 1, sums), 0)
	tasks["decode: well-formed control"] = decodeTask(3, 1, th, 1e-6, 1, sums)
	for name, p := range tasks {
		out, err := ExecuteTask(context.Background(), p)
		if name == "well-formed control" {
			if err != nil || !bytes.Equal(out, outputOf(map[int]float64{5: 4, 6: 3})) {
				t.Errorf("task %q: %x, %v", name, out, err)
			}
			continue
		}
		if name == "decode: well-formed control" {
			if err != nil || !bytes.Equal(out, []byte{payloadVersion, 3, 1, 3}) {
				t.Errorf("task %q: %x, %v", name, out, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("task %q accepted: %x", name, out)
		} else if !strings.Contains(err.Error(), workqueue.StageDecode+": dtm: bad task payload") || len(obs.ReturnTrace(err)) == 0 {
			t.Errorf("task %q: %v is not a traced decode-stage error", name, err)
		}
	}
	const limit = 10
	pair := func(b []byte, d uint64, v float64) []byte { return f64(binary.AppendUvarint(b, d), v) }
	outputs := map[string][]byte{
		"empty":               nil,
		"unknown version":     {0, 0},
		"truncated count":     {payloadVersion, 0x80},
		"k over bytes left":   pair(uv(2), 1, 1),
		"huge k":              uv(math.MaxUint64),
		"not ascending":       pair(pair(uv(2), 3, 1), 0, 1),
		"index at limit":      pair(uv(1), limit, 1),
		"index past limit":    pair(pair(uv(2), limit-1, 1), 1, 1),
		"delta wraps":         pair(pair(uv(2), 1, 1), math.MaxUint64, 1),
		"short sum":           pair(uv(1), 1, 1)[:1+1+1+7],
		"trailing bytes":      append(pair(uv(1), 1, 1), 0),
		"sum NaN":             pair(uv(1), 1, math.NaN()),
		"well-formed control": pair(pair(uv(2), 0, 1), limit-1, 0),
	}
	for name, out := range outputs {
		_, err := checkOutput(out, limit)
		if (err == nil) != (name == "well-formed control") {
			t.Errorf("output %q: %v", name, err)
		}
	}
	// Truth timelines, every one offered as the answer to a series of
	// five intervals.
	truths := map[string][]byte{
		"empty":                 nil,
		"unknown version":       {2, 5, 1, 5},
		"truncated length":      {payloadVersion, 0x80},
		"no first value":        {payloadVersion, 5},
		"unknown first value":   {payloadVersion, 5, 2, 5},
		"T under shipped":       {payloadVersion, 4, 1, 4},
		"T over shipped":        {payloadVersion, 6, 1, 6},
		"huge T":                append(uv(math.MaxUint64), 1, 5),
		"runs stop short":       {payloadVersion, 5, 1, 2, 2},
		"runs pass the end":     {payloadVersion, 5, 1, 2, 4},
		"run length wraps":      append(append(uv(5), 1, 2), uv(math.MaxUint64)[1:]...),
		"zero-length run":       {payloadVersion, 5, 1, 2, 0, 3},
		"zero-length last run":  {payloadVersion, 5, 1, 5, 0},
		"trailing bytes":        {payloadVersion, 5, 1, 2, 3, 0},
		"truncated run":         {payloadVersion, 5, 1, 2, 0x80},
		"well-formed control":   {payloadVersion, 5, 0, 2, 3},
		"well-formed, one run":  {payloadVersion, 5, 1, 5},
		"well-formed, all flip": {payloadVersion, 5, 1, 1, 1, 1, 1, 1},
	}
	for name, out := range truths {
		est, err := decodeEstimates(out, 5, "c", origin(), time.Minute)
		if (err == nil) != strings.HasPrefix(name, "well-formed") {
			t.Errorf("truth %q: %v, %v", name, est, err)
		}
	}
	if est, err := decodeEstimates(truths["well-formed control"], 5, "c", origin(), time.Minute); err != nil ||
		est[0].Value != socialsensing.False || est[1].Value != socialsensing.False || est[2].Value != socialsensing.True || est[4].Value != socialsensing.True {
		t.Errorf("well-formed truth expands to %v, %v", est, err)
	}
	// A worker answering with an output or a timeline the codec refuses
	// fails its job with a traced decode-stage error.
	for what, answer := range map[string]func(exec workqueue.Executor) workqueue.Executor{
		"output": func(workqueue.Executor) workqueue.Executor {
			return func(context.Context, []byte) ([]byte, error) { return outputs["not ascending"], nil }
		},
		"truth": func(exec workqueue.Executor) workqueue.Executor {
			return func(ctx context.Context, p []byte) ([]byte, error) {
				if p[0] == kindDecode {
					return truths["zero-length run"], nil
				}
				return exec(ctx, p)
			}
		},
	} {
		cfg := DefaultConfig(origin())
		cfg.Workers, cfg.TasksPerJob = 1, 1
		cfg.WrapExec = answer
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Start(context.Background())
		if err := m.SubmitJob("c", flipReports("c", 5, 2, 2, 0, 1), 0); err != nil {
			t.Fatal(err)
		}
		if err := drain(t, m, 1)[0].Err; err == nil ||
			!strings.Contains(err.Error(), workqueue.StageDecode+": dtm: bad task "+what) || len(obs.ReturnTrace(err)) == 0 {
			t.Errorf("job error %v is not a traced decode-stage error about the %s", err, what)
		}
		m.Close()
	}
}

// TestSubmitJobRejectsNonFiniteScores: a NaN or ±Inf score is refused at
// submit, by claim and report index, and the refused job leaves nothing
// behind — the same claim goes through once its reports are clean.
func TestSubmitJobRejectsNonFiniteScores(t *testing.T) {
	m, err := New(DefaultConfig(origin()))
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, field := range []string{"Uncertainty", "Independence"} {
			reports := flipReports("c1", 10, 5, 4, 0.1, 1)
			if field == "Uncertainty" {
				reports[17].Uncertainty = bad
			} else {
				reports[17].Independence = bad
			}
			err := m.SubmitJob("c1", reports, 0)
			if err == nil {
				t.Fatalf("%s = %v accepted", field, bad)
			}
			if !strings.Contains(err.Error(), "claim c1 report 17") {
				t.Errorf("%s = %v: error %q does not name the claim and report", field, bad, err)
			}
			if p := m.Progress(); len(p) != 0 {
				t.Fatalf("%s = %v: refused job still in Progress: %+v", field, bad, p)
			}
		}
	}
	if err := m.SubmitJob("c1", flipReports("c1", 10, 5, 4, 0.1, 1), 0); err != nil {
		t.Fatalf("clean resubmission refused: %v", err)
	}
	if res := drain(t, m, 1)[0]; res.Err != nil || len(res.Estimates) != 10 {
		t.Fatalf("clean resubmission: %d estimates, err %v", len(res.Estimates), res.Err)
	}
}

// TestSubmitAfterCloseLeavesNoJob: a job whose tasks the master refuses is
// unregistered again, so it neither lingers in Progress nor blocks a
// second submission with "already submitted".
func TestSubmitAfterCloseLeavesNoJob(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.Tracer = obs.NewTracer(0)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	m.Close()
	reports := flipReports("late", 5, 2, 2, 0, 1)
	for attempt := 0; attempt < 2; attempt++ {
		err := m.SubmitJob("late", reports, 0)
		if err == nil || !strings.Contains(err.Error(), "shut down") {
			t.Fatalf("attempt %d: err = %v, want the master's shutdown error", attempt, err)
		}
		if p := m.Progress(); len(p) != 0 {
			t.Fatalf("attempt %d: refused job still in Progress: %+v", attempt, p)
		}
	}
	if open := openSpans(cfg.Tracer); open != 0 {
		t.Errorf("%d spans never finished", open)
	}
}

// TestDuplicateSubmitLeavesNoOpenSpan: a refused duplicate must not leave
// a root span that never finishes.
func TestDuplicateSubmitLeavesNoOpenSpan(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.Tracer = obs.NewTracer(0)
	cfg.WorkDelay = time.Millisecond // keep the first job in flight
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	if err := m.SubmitJob("dup", flipReports("dup", 5, 2, 2, 0, 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.SubmitJob("dup", nil, 0); err == nil || !strings.Contains(err.Error(), "already submitted") {
		t.Errorf("duplicate submit: %v", err)
	}
	drain(t, m, 1)
	m.Close()
	if open := openSpans(cfg.Tracer); open != 0 {
		t.Errorf("%d spans never finished", open)
	}
}

// TestDuplicateRefusedBeforeEncode: a duplicate is refused as one before
// its reports are encoded — reports the encoder would refuse, here a NaN
// score, still get the duplicate's error.
func TestDuplicateRefusedBeforeEncode(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.WorkDelay = time.Millisecond // keep the first job in flight
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("dup", flipReports("dup", 5, 2, 2, 0, 1), 0); err != nil {
		t.Fatal(err)
	}
	bad := flipReports("dup", 5, 2, 2, 0, 1)
	bad[3].Independence = math.NaN()
	if err := m.SubmitJob("dup", bad, 0); err == nil || !strings.Contains(err.Error(), "already submitted") {
		t.Errorf("duplicate of unencodable reports: %v, want the duplicate's error", err)
	}
	drain(t, m, 1)
}

// openSpans counts the spans the tracer handed out and never saw
// finished: span IDs are sequential, so they are the gaps in the record.
func openSpans(tr *obs.Tracer) int {
	var maxID int64
	spans := tr.Spans()
	for _, s := range spans {
		maxID = max(maxID, s.ID)
	}
	return int(maxID) - len(spans)
}

// TestCodecAllocs bounds the allocations of the hot paths: an executed
// scatter task makes its output (and at most a scratch the pool did not
// have), encoding a job into a buffer it has used before allocates
// nothing however many reports it carries, and an executed decode task
// adds to what the decode itself allocates its answer, its parameters and
// a decoder (four allocations inside core.NewDecoder) — every buffer is
// pooled.
func TestCodecAllocs(t *testing.T) {
	encode := func(n int) float64 {
		chunks := splitReports(flipReports("c", n/10, n/20, 10, 0.1, 3), 4)
		var buf jobBuf
		return testing.AllocsPerRun(20, func() {
			if _, err := encodeTasks(&buf, chunks, origin(), time.Minute); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := encode(100), encode(10000); small != 0 || large != 0 {
		t.Errorf("encodeTasks allocations into a used buffer: %v for 100 reports, %v for 10000; want 0", small, large)
	}
	payloads, _, err := encodeJob(splitReports(flipReports("c", 1000, 500, 10, 0.1, 3), 4), origin(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if got := testing.AllocsPerRun(50, func() {
		if _, err := ExecuteTask(ctx, payloads[1]); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("ExecuteTask allocations = %v, want <= 2", got)
	}
	outputs := make([][]byte, len(payloads))
	for i, p := range payloads {
		if outputs[i], err = ExecuteTask(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	decode, n := mergeOutputs(nil, appendDecodeHeader(nil, 3, core.DefaultDecoderConfig()), outputs, 1000)
	end, window, dec, err := parseDecodeHeader(decode)
	if err != nil {
		t.Fatal(err)
	}
	sums, series, sc := make([]float64, n), make([]float64, n), core.NewDecodeScratch()
	foldOutput(sums, decode[end:])
	windowedSeries(series, sums, window)
	kernel := testing.AllocsPerRun(20, func() {
		if _, err := dec.DecodeInto(sc, series); err != nil {
			t.Fatal(err)
		}
	})
	// The least of many single runs: under the race detector sync.Pool
	// drops a share of what is put back, and a missing scratch costs a
	// dozen allocations that are not the steady state.
	got := math.Inf(1)
	for i := 0; i < 40; i++ {
		got = min(got, testing.AllocsPerRun(1, func() {
			if _, err := ExecuteTask(ctx, decode); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if got > kernel+6 {
		t.Errorf("ExecuteTask allocations on a decode task = %v, want <= %v (DecodeInto's own) + 6", got, kernel)
	}
}

// fuzzSeeds are the golden vectors and every single-bit flip of them.
func fuzzSeeds(f *testing.F, prefix string) {
	paths, err := filepath.Glob(filepath.Join("testdata", prefix+"*.bin"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no %s golden vectors: %v", prefix, err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		for bit := 0; bit < 8*len(b); bit++ {
			flipped := bytes.Clone(b)
			flipped[bit/8] ^= 1 << (bit % 8)
			f.Add(flipped)
		}
	}
}

// FuzzDecodeTask drives arbitrary bytes through the executor: it must
// never panic, and for whatever it accepts its answer must be what a
// map-based reading of the same bytes gives — the sums of a scatter task,
// the decoded timeline of a decode task. The retired task v1 vectors seed
// it as inputs to refuse.
func FuzzDecodeTask(f *testing.F) {
	fuzzSeeds(f, "task_v1_")
	fuzzSeeds(f, "decode_v1_")
	fuzzSeeds(f, "task_v2_")
	f.Fuzz(func(t *testing.T, payload []byte) {
		out, err := ExecuteTask(context.Background(), payload)
		if err != nil {
			return
		}
		if payload[0] == kindDecode {
			checkDecodeAnswer(t, payload, out)
			return
		}
		// Accepted, so the header is sound; read the runs the slow way.
		task, err := parseTask(payload)
		if err != nil {
			t.Fatalf("executed a payload parseTask rejects: %v", err)
		}
		if len(out) > 2+binary.MaxVarintLen64+18*task.n {
			t.Fatalf("%d output bytes for %d reports", len(out), task.n)
		}
		sums := make(map[int]float64)
		at, col, i, top := task.base, task.col, 0, 0
		for k := 0; k < task.runs; k++ {
			d, w := binary.Varint(col)
			count, v := binary.Uvarint(col[w:])
			at, col = at+int(d), col[w+v:]
			for end := i + int(count); i < end; i++ {
				sums[at] += math.Float64frombits(binary.LittleEndian.Uint64(task.scores[8*i:]))
			}
			top = max(top, at)
		}
		for at, sum := range sums {
			if sum == 0 && at != top {
				delete(sums, at)
			}
		}
		if want := outputOf(sums); !bytes.Equal(out, want) {
			t.Fatalf("output %x, map reference %x", out, want)
		}
	})
}

// checkDecodeAnswer holds the answer to an accepted decode task to the
// timeline core.Decoder.Decode gives the series read the slow way: pairs
// into a map, a window summed per interval.
func checkDecodeAnswer(t *testing.T, payload, out []byte) {
	end, window, dec, err := parseDecodeHeader(payload)
	if err != nil {
		t.Fatalf("executed a payload parseDecodeHeader rejects: %v", err)
	}
	n, err := checkOutput(payload[end:], maxSpan)
	if err != nil {
		t.Fatalf("executed a payload whose sums checkOutput rejects: %v", err)
	}
	if n > 1<<16 {
		return // accepted and answered; too long to decode twice per input
	}
	k, w := binary.Uvarint(payload[end+1:])
	rest, idx := payload[end+1+w:], 0
	sums := make(map[int]float64)
	for ; k > 0; k-- {
		d, w := binary.Uvarint(rest)
		idx += int(d)
		sums[idx] = math.Float64frombits(binary.LittleEndian.Uint64(rest[w:]))
		rest = rest[w+8:]
	}
	series := make([]float64, n)
	for i := range series {
		// Ascending, as the running window sums them, one addend at a time.
		acc := 0.0
		if i > 0 {
			acc = series[i-1]
		}
		acc += sums[i]
		if i >= window {
			acc -= sums[i-window]
		}
		series[i] = acc
	}
	want, err := dec.Decode(series)
	if err != nil {
		t.Fatalf("the executor decoded a series Decode refuses: %v", err)
	}
	est, err := decodeEstimates(out, n, "fuzz", origin(), time.Minute)
	if err != nil {
		t.Fatalf("answer %x to a series of %d: %v", out, n, err)
	}
	for i, e := range est {
		if e.Value != want[i] {
			t.Fatalf("interval %d: answer %v, reference %v", i, e.Value, want[i])
		}
	}
}

// FuzzTruthResult drives arbitrary bytes through the master's reader of
// decode answers, offered for the length they claim (capped, so a claim
// past the cap is a mismatch): it must never panic, and whatever it
// accepts is a timeline of that length that survives re-encoding.
func FuzzTruthResult(f *testing.F) {
	fuzzSeeds(f, "truth_v1_")
	f.Fuzz(func(t *testing.T, out []byte) {
		n := 0
		if len(out) > 1 {
			claimed, _ := binary.Uvarint(out[1:])
			n = int(min(claimed, 1<<12))
		}
		est, err := decodeEstimates(out, n, "fuzz", origin(), time.Minute)
		if err != nil {
			return
		}
		if len(est) != n {
			t.Fatalf("%d estimates for a series of %d", len(est), n)
		}
		truth := make([]socialsensing.TruthValue, n)
		for i, e := range est {
			if e.Interval != i || (e.Value != socialsensing.False && e.Value != socialsensing.True) {
				t.Fatalf("estimate %d = %+v", i, e)
			}
			truth[i] = e.Value
		}
		again, err := decodeEstimates(appendTruth(nil, truth), n, "fuzz", origin(), time.Minute)
		if err != nil || !slices.Equal(est, again) {
			t.Fatalf("re-encoding the accepted timeline changes it: %v", err)
		}
	})
}

// FuzzFoldOutput drives arbitrary bytes through the output decoder: it
// must never panic or grow the sums past the limit, and whatever it
// accepts must equal a map-based reading of the same pairs.
func FuzzFoldOutput(f *testing.F) {
	fuzzSeeds(f, "output_v1_")
	f.Fuzz(func(t *testing.T, out []byte) {
		const limit = 1 << 12
		got, err := foldOutputs(t, [][]byte{out}, limit)
		if err != nil {
			return
		}
		if len(got) > limit {
			t.Fatalf("%d sums past the limit %d", len(got), limit)
		}
		k, w := binary.Uvarint(out[1:])
		rest, idx := out[1+w:], 0
		sums := make(map[int]float64)
		for ; k > 0; k-- {
			d, w := binary.Uvarint(rest)
			idx += int(d)
			sums[idx] = math.Float64frombits(binary.LittleEndian.Uint64(rest[w:]))
			rest = rest[w+8:]
		}
		if want := refMerge([]map[int]float64{sums}); !sameBits(got, want) {
			t.Fatalf("folded %v, map reference %v", got, want)
		}
	})
}

// ExampleExecuteTask runs both phases of a one-chunk job through the one
// executor: the scatter task, then the decode task built from its output.
func ExampleExecuteTask() {
	reports := []socialsensing.Report{
		{Claim: "c", Timestamp: origin().Add(2 * time.Minute), Attitude: socialsensing.Agree, Uncertainty: 0.5, Independence: 1},
		{Claim: "c", Timestamp: origin().Add(2 * time.Minute), Attitude: socialsensing.Agree, Uncertainty: 0.5, Independence: 0.5},
	}
	payloads, intervals, _ := encodeJob(splitReports(reports, 1), origin(), time.Minute)
	out, _ := ExecuteTask(context.Background(), payloads[0])
	header := appendDecodeHeader(nil, 2, core.DefaultDecoderConfig())
	decode, n := mergeOutputs(nil, header, [][]byte{out}, intervals)
	truth, _ := ExecuteTask(context.Background(), decode)
	estimates, _ := decodeEstimates(truth, n, "c", origin(), time.Minute)
	fmt.Println(len(payloads[0]), "payload bytes,", len(decode)-len(header), "bytes of merged sums,", len(truth), "truth bytes")
	for _, e := range estimates {
		fmt.Println(e.Interval, e.Value)
	}
	// Output:
	// 23 payload bytes, 11 bytes of merged sums, 4 truth bytes
	// 0 true
	// 1 true
	// 2 true
}
