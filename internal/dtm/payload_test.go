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
	"sync"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/tracegen"
	"github.com/social-sensing/sstd/internal/workqueue"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden task payloads and outputs under testdata")

// encodeTasks is encodeShared on the calling goroutine alone.
func encodeTasks(jb *jobBuf, chunks [][]socialsensing.Report, origin time.Time, interval time.Duration) (int, error) {
	return encodeShared(jb, chunks, origin, interval, nil)
}

// encodeJob is encodeTasks into a buffer of its own.
func encodeJob(chunks [][]socialsensing.Report, origin time.Time, interval time.Duration) ([][]byte, int, error) {
	var buf jobBuf
	intervals, err := encodeTasks(&buf, chunks, origin, interval)
	return buf.payloads, intervals, err
}

// goldenChunks are the fixtures behind testdata/task_v3_*.bin and
// output_v2_*.bin, on a one-minute grid from origin(). The retired
// task_v1_*.bin (an index per report), task_v2_*.bin (float scores) and
// output_v1_*.bin (float sums) encode the same chunks.
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

// goldenDecodes are the fixtures behind testdata/decode_v2_*.bin: a
// decoder configuration and a job's merged per-interval sums, in score
// units, window 3. truth names the testdata/truth_v1_*.bin the task must
// be answered with. The retired decode_v1_*.bin carry the same sums as
// floats, and decode_v2_gaussian.bin the phases sums under the retired
// Gaussian emission kind (2); both are refused.
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
		"phases":        {cfg: core.DefaultDecoderConfig(), sums: phases, truth: "flips"},
	}
}

// fixed is sums in the Q1.30 fixed point, rounded as core.FixedScore
// rounds.
func fixed(sums []float64) []int64 {
	out := make([]int64, len(sums))
	for i, v := range sums {
		out[i] = int64(math.RoundToEven(v * core.ScoreOne))
	}
	return out
}

// TestGoldenPayloadsStable freezes the layouts: re-encoding the fixtures
// must reproduce the checked-in bytes, and executing a checked-in task must
// reproduce the checked-in answer, while every retired layout — task v1
// and v2, output v1, decode v1 — is refused as an unknown version, and a
// decode task of the retired Gaussian emission kind as an unknown kind.
// Regenerate with -update only together with a version bump.
func TestGoldenPayloadsStable(t *testing.T) {
	retired := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, chunk := range goldenChunks() {
		payloads, intervals, err := encodeJob([][]socialsensing.Report{chunk}, origin(), time.Minute)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		task := goldenFile(t, "task_v3_"+name+".bin", payloads[0])
		if !bytes.Equal(payloads[0], task) {
			t.Errorf("%s: task payload %x, golden %x", name, payloads[0], task)
		}
		for _, old := range []string{"task_v1_", "task_v2_"} {
			if out, err := ExecuteTask(context.Background(), retired(old+name+".bin")); err == nil || !strings.Contains(err.Error(), "unknown version") {
				t.Errorf("%s: %s answered %x, %v; want it refused as an unknown version", name, old, out, err)
			}
		}
		if _, err := foldOutput(new([]int64), retired("output_v1_"+name+".bin"), maxSpan, math.MaxInt64); err == nil || err.Error() != "unknown version" {
			t.Errorf("%s: output v1 read with %v; want it refused as an unknown version", name, err)
		}
		out, err := ExecuteTask(context.Background(), task)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := goldenFile(t, "output_v2_"+name+".bin", out); !bytes.Equal(out, want) {
			t.Errorf("%s: task output %x, golden %x", name, out, want)
		}
		got, _ := mergeJob(t, nil, [][]byte{out}, intervals, []int{0})
		if want := listed(refTaskSums(t, chunk, origin(), time.Minute)); !bytes.Equal(got, want) {
			t.Errorf("%s: merged %x, want %x", name, got, want)
		}
	}
	for name, g := range goldenDecodes() {
		// Through the merge, as submitDecode builds it: one scatter output
		// listing every interval.
		sums := fixed(g.sums)
		dense := make(map[int]int64, len(sums))
		for idx, v := range sums {
			dense[idx] = v
		}
		payload, n := mergeJob(t, appendDecodeHeader(nil, 3, g.cfg), [][]byte{outputOf(dense)}, len(sums), []int{0})
		task := goldenFile(t, "decode_v2_"+name+".bin", payload)
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
		dec, err := core.NewDecoder(g.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dec.Decode(core.Window(nil, sums, 3))
		if err != nil {
			t.Fatal(err)
		}
		est, err := decodeEstimates(out, n, minuteStarts(n))
		if err != nil || len(est) != len(want) {
			t.Fatalf("%s: %d estimates, %v; want %d", name, len(est), err, len(want))
		}
		for i, e := range est {
			if e.Value != want[i] || !e.Start.Equal(origin().Add(time.Duration(i)*time.Minute)) {
				t.Fatalf("%s: estimate %d = %+v, want %v", name, i, e, want[i])
			}
		}
	}
	v1, err := filepath.Glob(filepath.Join("testdata", "decode_v1_*.bin"))
	if err != nil || len(v1) == 0 {
		t.Fatalf("decode v1 fixtures: %v, %v", v1, err)
	}
	for _, path := range v1 {
		if out, err := ExecuteTask(context.Background(), retired(filepath.Base(path))); err == nil || !strings.Contains(err.Error(), "unknown version") {
			t.Errorf("%s answered %x, %v; want it refused as an unknown version", path, out, err)
		}
	}
	if out, err := ExecuteTask(context.Background(), retired("decode_v2_gaussian.bin")); err == nil || !strings.Contains(err.Error(), "unknown emission kind") {
		t.Errorf("decode_v2_gaussian.bin answered %x, %v; want it refused as an unknown emission kind", out, err)
	}
}

// TestCodecMatchesMapReferenceBits runs a generated trace through encode,
// execute and fold for every shape the truth digests cover and requires
// the merged sums to equal the map-based reference's.
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
				for i, p := range payloads {
					if outputs[i], err = ExecuteTask(context.Background(), p); err != nil {
						t.Fatal(err)
					}
				}
				got, _ := mergeJob(t, nil, outputs, intervals, inOrder(len(outputs)))
				if want := listed(refTaskSums(t, reports, tr.Start, grid)); !bytes.Equal(got, want) {
					t.Fatalf("claim %s tasks=%d grid=%s: merged sums differ from the map reference", claim, tasks, grid)
				}
			}
		}
	}
}

// TestScatterMatchesMapReference is the property behind the scatter
// task's run column: over generated chunks of every shape it has to get right, the
// executed scatter task answers byte for byte the output of the map-based
// reference's sums — every slot whose sum is non-zero, and the highest.
func TestScatterMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// at makes one report per minute offset, a score of wildly varying
	// magnitude each.
	at := func(minutes ...float64) []socialsensing.Report {
		out := make([]socialsensing.Report, len(minutes))
		for i, m := range minutes {
			out[i] = socialsensing.Report{
				Claim: "p", Timestamp: origin().Add(time.Duration(m * float64(time.Minute))),
				Attitude: socialsensing.Attitude(1 - 2*rng.Intn(2)), Uncertainty: rng.Float64(),
				Independence: rng.Float64() * math.Pow(10, -float64(rng.Intn(9))),
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
			if want := listed(refTaskSums(t, chunk, origin(), time.Minute)); !bytes.Equal(out, want) {
				t.Fatalf("%s, trial %d: output %x, map reference %x", shape.name, trial, out, want)
			}
		}
	}
}

// TestDecodersRejectMalformed hands both decoders the damage the wire
// layer's parsers are held to. None may be accepted, panic or allocate
// from an unchecked length.
func TestDecodersRejectMalformed(t *testing.T) {
	uv := func(version byte, vs ...uint64) []byte {
		b := []byte{version}
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
	i32 := func(b []byte, vs ...int32) []byte {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		return b
	}
	zz := func(d int64) byte { return byte(d<<1 ^ d>>63) } // |d| < 64
	const one = core.ScoreOne
	// A scatter task: n and the scores, base, span and the run count, then
	// the run column's bytes.
	scatter := func(n uint64, scores []int32, base, span, runs uint64, col ...byte) []byte {
		b := i32(binary.AppendUvarint([]byte{kindScatter}, n), scores...)
		for _, v := range []uint64{base, span, runs} {
			b = binary.AppendUvarint(b, v)
		}
		return append(b, col...)
	}
	control := scatter(3, []int32{one, 2, -one}, 5, 2, 2, zz(1), 2, zz(-1), 1)
	tasks := map[string][]byte{
		"empty":                      nil,
		"unknown kind":               {6, 0, 0, 0, 0},
		"task v1":                    f64(append(uv(1, 1, 0, 1), 0), 1),
		"task v2":                    f64([]byte{3, 1}, 1),
		"truncated header":           {kindScatter, 0x80},
		"n over bytes left":          i32(binary.AppendUvarint([]byte{kindScatter}, 3), 1, 1),
		"huge n":                     binary.AppendUvarint([]byte{kindScatter}, math.MaxUint64),
		"no header after scores":     i32([]byte{kindScatter, 1}, 1),
		"span over cap":              scatter(1, []int32{1}, 0, maxSpan+1, 1, zz(0), 1),
		"base near overflow":         scatter(1, []int32{1}, math.MaxInt64, 1, 1, zz(0), 1),
		"index below base":           scatter(1, []int32{1}, 5, 2, 1, zz(-1), 1),
		"index past span":            scatter(1, []int32{1}, 5, 2, 1, zz(2), 1),
		"index with no span":         scatter(1, []int32{1}, 5, 0, 1, zz(0), 1),
		"walk leaves the span":       scatter(2, []int32{1, 1}, 5, 2, 2, zz(1), 1, zz(-2), 1),
		"count 0":                    scatter(1, []int32{1}, 0, 1, 1, zz(0), 0),
		"counts under n":             scatter(2, []int32{1, 1}, 0, 2, 1, zz(0), 1),
		"counts over n":              scatter(2, []int32{1, 1}, 0, 2, 2, zz(0), 2, zz(1), 1),
		"huge count":                 scatter(1, []int32{1}, 0, 1, 1, append([]byte{zz(0)}, binary.AppendUvarint(nil, math.MaxUint64)...)...),
		"runs over n":                scatter(1, []int32{1}, 0, 1, 2, zz(0), 1, zz(0), 1),
		"runs for no reports":        scatter(0, nil, 0, 1, 1, zz(0), 1),
		"no runs":                    scatter(1, []int32{1}, 0, 1, 0),
		"runs over bytes left":       scatter(2, []int32{1, 1}, 0, 2, 2, zz(0), 1, zz(1)),
		"truncated run":              scatter(1, []int32{1}, 0, 1, 1, zz(0), 0x80),
		"truncated second run":       scatter(2, []int32{1, 1}, 0, 2, 2, zz(0), 1, 0x80, 0x80),
		"truncated scores":           control[:4],
		"truncated control":          control[:len(control)-1],
		"trailing bytes":             scatter(1, []int32{1}, 0, 1, 1, zz(0), 1, 0),
		"trailing bytes, no reports": scatter(0, nil, 0, 0, 0, 0),
		"score over 2^30":            scatter(1, []int32{one + 1}, 0, 1, 1, zz(0), 1),
		"score under -2^30":          scatter(1, []int32{-one - 1}, 0, 1, 1, zz(0), 1),
		"score min int32 mid-run":    scatter(3, []int32{1, math.MinInt32, 1}, 0, 1, 1, zz(0), 3),
		// Two runs of the span's two slots, the second back at the first:
		// slot 6 gets 2^30+2, slot 5 gets -2^30.
		"well-formed control": control,
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
	// An output v2 pair: an index step and a sum.
	pair := func(b []byte, d uint64, v int64) []byte { return binary.AppendVarint(binary.AppendUvarint(b, d), v) }
	th := []float64{0.5, 2}
	sums := outputOf(map[int]int64{0: one, 1: -one, 2: one})
	tasks["decode: truncated header"] = decodeTask(3, 1, th, 1e-6, 1, sums)[:30]
	tasks["decode: short of a threshold"] = decodeTask(3, 1, th, 1e-6, 1, nil)[:53]
	tasks["decode: window 0"] = decodeTask(0, 1, th, 1e-6, 1, sums)
	tasks["decode: window over cap"] = decodeTask(maxSpan+1, 1, th, 1e-6, 1, sums)
	tasks["decode: unknown emission kind"] = decodeTask(3, 3, th, 1e-6, 1, sums)
	tasks["decode: retired Gaussian emission kind"] = decodeTask(3, 2, th, 1e-6, 1, sums)
	tasks["decode: huge emission kind"] = decodeTask(3, math.MaxUint64, th, 1e-6, 1, sums)
	tasks["decode: threshold count over bytes left"] = f64(binary.AppendUvarint([]byte{kindDecode, 3, 1, 100, 1}, 1<<40), 1e-6, 1e-3, 1e-3, 1e-3, 0.5)
	tasks["decode: iteration bound out of range"] = f64([]byte{kindDecode, 3, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 0}, 1e-6, 1e-3, 1e-3, 1e-3)
	tasks["decode: thresholds not ascending"] = decodeTask(3, 1, []float64{2, 0.5}, 1e-6, 1, sums)
	tasks["decode: threshold NaN"] = decodeTask(3, 1, []float64{0.5, math.NaN()}, 1e-6, 1, sums)
	tasks["decode: tolerance Inf"] = decodeTask(3, 1, th, math.Inf(1), 1, sums)
	tasks["decode: freeze flag 2"] = decodeTask(3, 1, th, 1e-6, 2, sums)
	tasks["decode: no sums"] = decodeTask(3, 1, th, 1e-6, 1, nil)
	tasks["decode: sums of output v1"] = decodeTask(3, 1, th, 1e-6, 1, f64(uv(1, 1, 0), 1))
	tasks["decode v1"] = append([]byte{2}, decodeTask(3, 1, th, 1e-6, 1, f64(uv(1, 1, 0), 1))[1:]...)
	tasks["decode: pair count over bytes left"] = decodeTask(3, 1, th, 1e-6, 1, pair(uv(outputVersion, 3), 1, 1))
	tasks["decode: indices not ascending"] = decodeTask(3, 1, th, 1e-6, 1, pair(pair(uv(outputVersion, 2), 3, 1), 0, 1))
	tasks["decode: index over cap"] = decodeTask(3, 1, th, 1e-6, 1, pair(uv(outputVersion, 1), maxSpan, 1))
	tasks["decode: truncated sum"] = decodeTask(3, 1, th, 1e-6, 1, append(uv(outputVersion, 1, 0), 0x80))
	tasks["decode: sums over int64"] = decodeTask(3, 1, th, 1e-6, 1, pair(pair(uv(outputVersion, 2), 0, math.MaxInt64), 1, 1))
	tasks["decode: sum of min int64"] = decodeTask(3, 1, th, 1e-6, 1, pair(uv(outputVersion, 1), 0, math.MinInt64))
	tasks["decode: trailing bytes"] = append(decodeTask(3, 1, th, 1e-6, 1, sums), 0)
	tasks["decode: well-formed control"] = decodeTask(3, 1, th, 1e-6, 1, sums)
	for name, p := range tasks {
		out, err := ExecuteTask(context.Background(), p)
		if name == "well-formed control" {
			if err != nil || !bytes.Equal(out, outputOf(map[int]int64{5: -one, 6: one + 2})) {
				t.Errorf("task %q: %x, %v", name, out, err)
			}
			continue
		}
		if name == "decode: well-formed control" {
			if err != nil || !bytes.Equal(out, []byte{truthVersion, 3, 1, 3}) {
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
	// Outputs, every one offered for a series of at most limit intervals
	// from scores adding up to at most 3·2^30 in magnitude.
	const limit = 10
	outputs := map[string][]byte{
		"empty":                nil,
		"unknown version":      {0, 0},
		"output v1":            f64(uv(1, 1, 1), 1),
		"truncated count":      {outputVersion, 0x80},
		"k over bytes left":    pair(uv(outputVersion, 2), 1, 1),
		"huge k":               uv(outputVersion, math.MaxUint64),
		"not ascending":        pair(pair(uv(outputVersion, 2), 3, 1), 0, 1),
		"index at limit":       pair(uv(outputVersion, 1), limit, 1),
		"index past limit":     pair(pair(uv(outputVersion, 2), limit-1, 1), 1, 1),
		"delta wraps":          pair(pair(uv(outputVersion, 2), 1, 1), math.MaxUint64, 1),
		"truncated index":      append(uv(outputVersion, 1), 0x80),
		"truncated sum":        append(uv(outputVersion, 1, 1), 0x80),
		"trailing bytes":       append(pair(uv(outputVersion, 1), 1, 1), 0),
		"sum over the scores":  pair(uv(outputVersion, 1), 1, 3*one+1),
		"sums over the scores": pair(pair(uv(outputVersion, 2), 1, -2*one), 1, one+1),
		"well-formed control":  pair(pair(pair(uv(outputVersion, 3), 0, -2*one), 1, one), limit-2, 0),
	}
	for name, out := range outputs {
		// Folded into sums already held: a refused output leaves them be.
		held := []int64{7, -7, 7, -7}
		n, err := foldOutput(&held, out, limit, 3*one)
		if (err == nil) != (name == "well-formed control") {
			t.Errorf("output %q: %v", name, err)
		}
		want := []int64{7, -7, 7, -7}
		if err == nil {
			want = []int64{7 - 2*one, -7 + one, 7, -7, 0, 0, 0, 0, 0, 0}
		}
		if !slices.Equal(held, want) || (err == nil) != (n == limit) {
			t.Errorf("output %q: sums %v and series length %d after the fold, want %v", name, held, n, want)
		}
	}
	// Truth timelines, every one offered as the answer to a series of
	// five intervals.
	truths := map[string][]byte{
		"empty":                 nil,
		"unknown version":       {2, 5, 1, 5},
		"truncated length":      {truthVersion, 0x80},
		"no first value":        {truthVersion, 5},
		"unknown first value":   {truthVersion, 5, 2, 5},
		"T under shipped":       {truthVersion, 4, 1, 4},
		"T over shipped":        {truthVersion, 6, 1, 6},
		"huge T":                append(uv(truthVersion, math.MaxUint64), 1, 5),
		"runs stop short":       {truthVersion, 5, 1, 2, 2},
		"runs pass the end":     {truthVersion, 5, 1, 2, 4},
		"run length wraps":      append(append(uv(truthVersion, 5), 1, 2), uv(truthVersion, math.MaxUint64)[1:]...),
		"zero-length run":       {truthVersion, 5, 1, 2, 0, 3},
		"zero-length last run":  {truthVersion, 5, 1, 5, 0},
		"trailing bytes":        {truthVersion, 5, 1, 2, 3, 0},
		"truncated run":         {truthVersion, 5, 1, 2, 0x80},
		"well-formed control":   {truthVersion, 5, 0, 2, 3},
		"well-formed, one run":  {truthVersion, 5, 1, 5},
		"well-formed, all flip": {truthVersion, 5, 1, 1, 1, 1, 1, 1},
	}
	for name, out := range truths {
		est, err := decodeEstimates(out, 5, minuteStarts(5))
		if (err == nil) != strings.HasPrefix(name, "well-formed") {
			t.Errorf("truth %q: %v, %v", name, est, err)
		}
	}
	if est, err := decodeEstimates(truths["well-formed control"], 5, minuteStarts(5)); err != nil ||
		est[0].Value != socialsensing.False || est[1].Value != socialsensing.False || est[2].Value != socialsensing.True || est[4].Value != socialsensing.True {
		t.Errorf("well-formed truth expands to %v, %v", est, err)
	}
	// A worker answering with an output or a timeline the codec refuses
	// fails its job with a traced decode-stage error: an output out of
	// shape, or one of more score than its task's reports carry.
	for _, tc := range []struct {
		what   string
		answer func(exec workqueue.Executor) workqueue.Executor
	}{
		{"output", func(workqueue.Executor) workqueue.Executor {
			return func(context.Context, []byte) ([]byte, error) { return outputs["not ascending"], nil }
		}},
		{"output", func(workqueue.Executor) workqueue.Executor {
			return func(context.Context, []byte) ([]byte, error) {
				return pair(uv(outputVersion, 1), 0, math.MaxInt64), nil
			}
		}},
		{"truth", func(exec workqueue.Executor) workqueue.Executor {
			return func(ctx context.Context, p []byte) ([]byte, error) {
				if p[0] == kindDecode {
					return truths["zero-length run"], nil
				}
				return exec(ctx, p)
			}
		}},
	} {
		what, answer := tc.what, tc.answer
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

// TestSubmitJobRejectsScoreOverOne: a score of magnitude over 1 — out of
// the Q1.30 range every sum is exact in — is refused at submit by claim
// and report index, leaving nothing behind, while ±1 itself goes through.
func TestSubmitJobRejectsScoreOverOne(t *testing.T) {
	m, err := New(DefaultConfig(origin()))
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	for name, set := range map[string]func(*socialsensing.Report){
		"independence 1.5": func(r *socialsensing.Report) { r.Independence = 1.5 },
		"uncertainty -0.5": func(r *socialsensing.Report) { r.Uncertainty, r.Independence = -0.5, 1 },
		"just over 1":      func(r *socialsensing.Report) { r.Uncertainty, r.Independence = 0, math.Nextafter(1, 2) },
	} {
		reports := flipReports("c1", 10, 5, 4, 0.1, 1)
		set(&reports[23])
		err := m.SubmitJob("c1", reports, 0)
		if err == nil || !strings.Contains(err.Error(), "claim c1 report 23") {
			t.Errorf("%s: submit error %v, want one naming claim c1 report 23", name, err)
		}
		if p := m.Progress(); len(p) != 0 {
			t.Fatalf("%s: refused job still in Progress: %+v", name, p)
		}
	}
	reports := flipReports("c1", 10, 5, 4, 0.1, 1)
	for i := range reports {
		reports[i].Uncertainty, reports[i].Independence = 0, 1
	}
	if err := m.SubmitJob("c1", reports, 0); err != nil {
		t.Fatalf("scores of ±1 refused: %v", err)
	}
	if res := drain(t, m, 1)[0]; res.Err != nil || len(res.Estimates) != 10 {
		t.Fatalf("scores of ±1: %d estimates, err %v", len(res.Estimates), res.Err)
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
	decode, _ := mergeJob(t, appendDecodeHeader(nil, 3, core.DefaultDecoderConfig()), outputs, 1000, inOrder(len(outputs)))
	var series []float64
	dec, err := readDecodeTask(decode, &series)
	if err != nil {
		t.Fatal(err)
	}
	sc := core.NewDecodeScratch()
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

// startHelpers runs n encode helpers until the test ends.
func startHelpers(t testing.TB, n int) []encodeHelper {
	ctx, cancel := context.WithCancel(context.Background())
	helpers := make([]encodeHelper, n)
	var wg sync.WaitGroup
	for i := range helpers {
		helpers[i].wake = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			helpers[i].run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	return helpers
}

// TestSharedEncodeAllocs: the encode SubmitJob runs, the job offered to
// idle helpers, allocates nothing into a used buffer either.
func TestSharedEncodeAllocs(t *testing.T) {
	helpers := startHelpers(t, 3)
	chunks := splitReports(flipReports("c", 1000, 500, 10, 0.1, 3), 4)
	var buf jobBuf
	if got := testing.AllocsPerRun(50, func() {
		if _, err := encodeShared(&buf, chunks, origin(), time.Minute, helpers); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("encodeShared allocations into a used buffer = %v, want 0", got)
	}
}

// TestSharedEncodeMatchesSerial: however a job's chunks fall between its
// submitter and the encode helpers, the payloads are the ones the
// submitter writes alone, byte for byte, and a job with refused scores in
// two chunks names the lower report.
func TestSharedEncodeMatchesSerial(t *testing.T) {
	helpers := startHelpers(t, 3)
	rng := rand.New(rand.NewSource(46))
	var alone, shared jobBuf
	for _, n := range []int{0, 1, 4000 + rng.Intn(2000)} {
		reports := make([]socialsensing.Report, n)
		at := origin().Add(-time.Hour)
		for i := range reports {
			// Mostly forward in time, with gaps and steps back.
			at = at.Add(time.Duration(rng.Intn(40)-4) * time.Second)
			reports[i] = socialsensing.Report{
				Claim: "c", Timestamp: at,
				Attitude:    socialsensing.Attitude(rng.Intn(3) - 1),
				Uncertainty: rng.Float64(), Independence: rng.Float64(),
			}
		}
		for tasks := 1; tasks <= 16; tasks++ {
			chunks := splitReports(reports, tasks)
			wantIv, err := encodeTasks(&alone, chunks, origin(), time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 4; round++ {
				iv, err := encodeShared(&shared, chunks, origin(), time.Minute, helpers)
				if err != nil || iv != wantIv || len(shared.payloads) != len(alone.payloads) {
					t.Fatalf("%d reports in %d tasks: %d intervals, %d payloads, %v; want %d, %d",
						n, tasks, iv, len(shared.payloads), err, wantIv, len(alone.payloads))
				}
				for i := range alone.payloads {
					if !bytes.Equal(shared.payloads[i], alone.payloads[i]) {
						t.Fatalf("%d reports in %d tasks: payload %d differs from the submitter's own", n, tasks, i)
					}
				}
			}
			if len(chunks) < 2 {
				continue
			}
			// Refuse a report in each of two chunks.
			bad := slices.Clone(reports)
			first := rng.Intn(len(chunks) - 1)
			second := first + 1 + rng.Intn(len(chunks)-1-first)
			pick := func(c int) int {
				start := 0
				for _, before := range chunks[:c] {
					start += len(before)
				}
				return start + rng.Intn(len(chunks[c]))
			}
			lo, hi := pick(first), pick(second)
			bad[hi].Independence = math.NaN()
			bad[lo].Attitude, bad[lo].Uncertainty, bad[lo].Independence = socialsensing.Agree, 0, 2
			_, err = encodeShared(&shared, splitReports(bad, tasks), origin(), time.Minute, helpers)
			if want := fmt.Sprintf("report %d:", lo); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%d reports in %d tasks, refused at %d and %d: error %v, want it to name %q", n, tasks, lo, hi, err, want)
			}
		}
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
// the decoded timeline of a decode task. The retired task v1 and v2 and
// decode v1 vectors seed it as inputs to refuse.
func FuzzDecodeTask(f *testing.F) {
	fuzzSeeds(f, "task_v1_")
	fuzzSeeds(f, "decode_v1_")
	fuzzSeeds(f, "task_v2_")
	fuzzSeeds(f, "task_v3_")
	fuzzSeeds(f, "decode_v2_")
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
		if len(out) > 2+binary.MaxVarintLen64+2*binary.MaxVarintLen64*task.n {
			t.Fatalf("%d output bytes for %d reports", len(out), task.n)
		}
		sums := make(map[int]int64)
		at, col, i := task.base, task.col, 0
		for k := 0; k < task.runs; k++ {
			d, w := binary.Varint(col)
			count, v := binary.Uvarint(col[w:])
			at, col = at+int(d), col[w+v:]
			for end := i + int(count); i < end; i++ {
				sums[at] += int64(int32(binary.LittleEndian.Uint32(task.scores[4*i:])))
			}
		}
		if want := listed(sums); !bytes.Equal(out, want) {
			t.Fatalf("output %x, map reference %x", out, want)
		}
	})
}

// readPairs reads an accepted output's pairs the slow way, into a map.
func readPairs(out []byte) map[int]int64 {
	k, w := binary.Uvarint(out[1:])
	rest, idx := out[1+w:], 0
	sums := make(map[int]int64)
	for ; k > 0; k-- {
		d, w := binary.Uvarint(rest)
		s, v := binary.Varint(rest[w:])
		idx += int(d)
		sums[idx] = s
		rest = rest[w+v:]
	}
	return sums
}

// checkDecodeAnswer holds the answer to an accepted decode task to the
// timeline core.Decoder.Decode gives the series read the slow way: pairs
// into a map, each interval's window summed afresh.
func checkDecodeAnswer(t *testing.T, payload, out []byte) {
	end, window, dec, err := parseDecodeHeader(payload)
	if err != nil {
		t.Fatalf("executed a payload parseDecodeHeader rejects: %v", err)
	}
	n, err := foldOutput(new([]int64), payload[end:], maxSpan, math.MaxInt64)
	if err != nil {
		t.Fatalf("executed a payload whose sums foldOutput rejects: %v", err)
	}
	if n > 1<<16 {
		return // accepted and answered; too long to decode twice per input
	}
	sums := readPairs(payload[end:])
	series := make([]float64, n)
	for i := range series {
		var acc int64
		for j := max(0, i-window+1); j <= i; j++ {
			acc += sums[j]
		}
		series[i] = float64(acc) / core.ScoreOne
	}
	want, err := dec.Decode(series)
	if err != nil {
		t.Fatalf("the executor decoded a series Decode refuses: %v", err)
	}
	est, err := decodeEstimates(out, n, minuteStarts(n))
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
		est, err := decodeEstimates(out, n, minuteStarts(n))
		if err != nil {
			return
		}
		if len(est) != n {
			t.Fatalf("%d estimates for a series of %d", len(est), n)
		}
		truth := make([]socialsensing.TruthValue, n)
		for i, e := range est {
			if !e.Start.Equal(origin().Add(time.Duration(i)*time.Minute)) || (e.Value != socialsensing.False && e.Value != socialsensing.True) {
				t.Fatalf("estimate %d = %+v", i, e)
			}
			truth[i] = e.Value
		}
		again, err := decodeEstimates(appendTruth(nil, truth), n, minuteStarts(n))
		if err != nil || !slices.Equal(est, again) {
			t.Fatalf("re-encoding the accepted timeline changes it: %v", err)
		}
	})
}

// FuzzFoldOutput drives arbitrary bytes through the output decoder: it
// must never panic or grow the sums past the limit, and whatever it
// accepts must fold into the sums a map-based reading of the same pairs
// gives. The retired output v1 vectors seed it as inputs to refuse.
func FuzzFoldOutput(f *testing.F) {
	fuzzSeeds(f, "output_v1_")
	fuzzSeeds(f, "output_v2_")
	f.Fuzz(func(t *testing.T, out []byte) {
		const limit = 1 << 12
		var got []int64
		n, err := foldOutput(&got, out, limit, math.MaxInt64)
		if err != nil {
			if len(got) != 0 {
				t.Fatalf("a refused output left %d sums behind", len(got))
			}
			return
		}
		if n > limit || len(got) < n || slices.ContainsFunc(got[n:], func(s int64) bool { return s != 0 }) {
			t.Fatalf("a series of %d in %d sums, limit %d, a sum past the series", n, len(got), limit)
		}
		got = got[:n]
		want := make([]int64, n)
		for idx, s := range readPairs(out) {
			want[idx] = s
		}
		if !slices.Equal(got, want) {
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
	var job jobBuf
	intervals, _ := encodeTasks(&job, splitReports(reports, 1), origin(), time.Minute)
	out, _ := ExecuteTask(context.Background(), job.payloads[0])
	js := &jobState{intervals: intervals, sums: getSums(intervals)}
	_ = js.fold(out, len(reports))
	header := appendDecodeHeader(nil, 2, core.DefaultDecoderConfig())
	decode := appendOutput(header, (*js.sums)[:js.seriesLen], 0)
	truth, _ := ExecuteTask(context.Background(), decode)
	estimates, _ := decodeEstimates(truth, js.seriesLen, minuteStarts(js.seriesLen))
	fmt.Println(len(job.payloads[0]), "payload bytes,", len(decode)-len(header), "bytes of merged sums,", len(truth), "truth bytes")
	for i, e := range estimates {
		fmt.Println(i, e.Value)
	}
	// Output:
	// 15 payload bytes, 8 bytes of merged sums, 4 truth bytes
	// 0 true
	// 1 true
	// 2 true
}
