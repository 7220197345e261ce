package dtm

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/tracegen"
	"github.com/social-sensing/sstd/internal/workqueue"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden task payloads and outputs under testdata")

// goldenChunks are the fixtures behind testdata/task_v1_*.bin and
// output_v1_*.bin, on a one-minute grid from origin().
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

// TestGoldenPayloadsStable freezes both v1 layouts: re-encoding the
// fixtures must reproduce the checked-in bytes, and executing a checked-in
// task must reproduce the checked-in output. Regenerate with -update only
// together with a payloadVersion bump.
func TestGoldenPayloadsStable(t *testing.T) {
	for name, chunk := range goldenChunks() {
		payloads, intervals, err := encodeTasks([][]socialsensing.Report{chunk}, origin(), time.Minute)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		task := goldenFile(t, "task_v1_"+name+".bin", payloads[0])
		if !bytes.Equal(payloads[0], task) {
			t.Errorf("%s: task payload %x, golden %x", name, payloads[0], task)
		}
		out, err := ExecuteTask(context.Background(), task)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := goldenFile(t, "output_v1_"+name+".bin", out); !bytes.Equal(out, want) {
			t.Errorf("%s: task output %x, golden %x", name, out, want)
		}
		got, err := foldOutputs([][]byte{out}, intervals)
		if want := refMerge([]map[int]float64{refTaskSums(chunk, origin(), time.Minute)}); err != nil || !sameBits(got, want) {
			t.Errorf("%s: folded %v, %v, want %v", name, got, err, want)
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
				payloads, intervals, err := encodeTasks(chunks, tr.Start, grid)
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
				got, err := foldOutputs(outputs, intervals)
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
	tasks := map[string][]byte{
		"empty":               nil,
		"unknown version":     {2, 0, 0, 0},
		"truncated header":    {payloadVersion, 1, 0x80},
		"n over bytes left":   f64(append(uv(3, 0, 1), 0, 0), 1, 1),
		"huge n":              uv(math.MaxUint64, 0, 1),
		"span over cap":       f64(append(uv(1, 0, maxSpan+1), 0), 1),
		"base near overflow":  f64(append(uv(1, math.MaxInt64, 1), 0), 1),
		"index below base":    f64(append(uv(1, 5, 2), zz(-1)), 1),
		"index past span":     f64(append(uv(1, 5, 2), zz(2)), 1),
		"index with no span":  f64(append(uv(1, 5, 0), zz(0)), 1),
		"short score column":  f64(append(uv(2, 0, 1), 0x80, 0, 0), 1, 1)[:4+3+15],
		"trailing bytes":      append(f64(append(uv(1, 0, 1), 0), 1), 0),
		"score NaN":           f64(append(uv(1, 0, 1), 0), math.NaN()),
		"score Inf":           f64(append(uv(1, 0, 1), 0), math.Inf(-1)),
		"well-formed control": f64(append(uv(2, 5, 2), zz(1), zz(-1)), 1, 2),
	}
	for name, p := range tasks {
		out, err := ExecuteTask(context.Background(), p)
		if name == "well-formed control" {
			if err != nil || !bytes.Equal(out, outputOf(map[int]float64{5: 2, 6: 1})) {
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
		err := checkOutput(out, limit)
		if (err == nil) != (name == "well-formed control") {
			t.Errorf("output %q: %v", name, err)
		}
	}
	// A worker answering with an output the codec refuses fails its task
	// with a traced decode-stage error.
	cfg := DefaultConfig(origin())
	cfg.Workers, cfg.TasksPerJob = 1, 1
	cfg.WrapExec = func(workqueue.Executor) workqueue.Executor {
		return func(context.Context, []byte) ([]byte, error) { return outputs["not ascending"], nil }
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("c", flipReports("c", limit, 5, 2, 0, 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := drain(t, m, 1)[0].Err; err == nil ||
		!strings.Contains(err.Error(), workqueue.StageDecode+": dtm: bad task output") || len(obs.ReturnTrace(err)) == 0 {
		t.Errorf("job error %v is not a traced decode-stage error", err)
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

// TestCodecAllocs bounds the allocations of the two hot paths: an executed
// task makes its output (and at most a scratch the pool did not have), and
// encoding a job costs the same few allocations however many reports it
// carries.
func TestCodecAllocs(t *testing.T) {
	encode := func(n int) float64 {
		chunks := splitReports(flipReports("c", n/10, n/20, 10, 0.1, 3), 4)
		return testing.AllocsPerRun(20, func() {
			if _, _, err := encodeTasks(chunks, origin(), time.Minute); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := encode(100), encode(10000)
	if small != large || large > 3 {
		t.Errorf("encodeTasks allocations: %v for 100 reports, %v for 10000; want equal and <= 3", small, large)
	}
	payloads, _, err := encodeTasks(splitReports(flipReports("c", 1000, 500, 10, 0.1, 3), 4), origin(), time.Minute)
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
// never panic, and for whatever it accepts its output must list what a
// map-based reading of the same bytes sums to.
func FuzzDecodeTask(f *testing.F) {
	fuzzSeeds(f, "task_v1_")
	f.Fuzz(func(t *testing.T, payload []byte) {
		out, err := ExecuteTask(context.Background(), payload)
		if err != nil {
			return
		}
		// Accepted, so the header is sound; read the columns the slow way.
		task, err := parseTask(payload)
		if err != nil {
			t.Fatalf("executed a payload parseTask rejects: %v", err)
		}
		if len(out) > 2+binary.MaxVarintLen64+18*task.n {
			t.Fatalf("%d output bytes for %d reports", len(out), task.n)
		}
		sums := make(map[int]float64)
		at, idx, top := task.base, task.idx, 0
		for i := 0; i < task.n; i++ {
			d, w := binary.Varint(idx)
			at, idx = at+int(d), idx[w:]
			sums[at] += math.Float64frombits(binary.LittleEndian.Uint64(task.scores[8*i:]))
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

// FuzzFoldOutput drives arbitrary bytes through the output decoder: it
// must never panic or grow the sums past the limit, and whatever it
// accepts must equal a map-based reading of the same pairs.
func FuzzFoldOutput(f *testing.F) {
	fuzzSeeds(f, "output_v1_")
	f.Fuzz(func(t *testing.T, out []byte) {
		const limit = 1 << 12
		got, err := foldOutputs([][]byte{out}, limit)
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

func ExampleExecuteTask() {
	reports := []socialsensing.Report{
		{Claim: "c", Timestamp: origin().Add(2 * time.Minute), Attitude: socialsensing.Agree, Uncertainty: 0.5, Independence: 1},
		{Claim: "c", Timestamp: origin().Add(2 * time.Minute), Attitude: socialsensing.Agree, Uncertainty: 0.5, Independence: 0.5},
	}
	payloads, intervals, _ := encodeTasks(splitReports(reports, 1), origin(), time.Minute)
	out, _ := ExecuteTask(context.Background(), payloads[0])
	sums, _ := foldOutputs([][]byte{out}, intervals)
	fmt.Println(len(payloads[0]), "payload bytes;", sums, windowedSeries(sums, 2))
	// Output: 22 payload bytes; [0 0 0.75] [0 0 0.75]
}
