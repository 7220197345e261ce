package dtm

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/tracegen"
)

// refTaskSums is one chunk's sparse per-interval sums of core.FixedScore,
// the map-based reading the codec is held to.
func refTaskSums(t testing.TB, chunk []socialsensing.Report, origin time.Time, interval time.Duration) map[int]int64 {
	t.Helper()
	sums := make(map[int]int64)
	for i := range chunk {
		r := &chunk[i]
		s, err := core.FixedScore(r)
		if err != nil {
			t.Fatal(err)
		}
		idx := 0
		if r.Timestamp.After(origin) {
			idx = int(r.Timestamp.Sub(origin) / interval)
		}
		sums[idx] += int64(s)
	}
	return sums
}

// outputOf encodes sums as an output v2 listing every entry.
func outputOf(sums map[int]int64) []byte {
	idxs := make([]int, 0, len(sums))
	for idx := range sums {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	out := binary.AppendUvarint([]byte{outputVersion}, uint64(len(idxs)))
	prev := 0
	for _, idx := range idxs {
		out = binary.AppendVarint(binary.AppendUvarint(out, uint64(idx-prev)), sums[idx])
		prev = idx
	}
	return out
}

// mergeJob folds a job's scatter outputs — outputs[i] from chunk i, nil for
// a lost task — into a job's sums in the order given, each checked in full
// as handleResult does, and builds the decode task as submitDecode does. It
// returns the task and the length of the series it carries.
func mergeJob(t testing.TB, header []byte, outputs [][]byte, intervals int, order []int) ([]byte, int) {
	t.Helper()
	js := &jobState{intervals: intervals, sums: getSums(intervals)}
	defer sumsPool.Put(js.sums)
	for _, i := range order {
		if outputs[i] == nil {
			continue
		}
		if err := js.fold(outputs[i], math.MaxInt32); err != nil {
			t.Fatalf("output %d: %v", i, err)
		}
	}
	return appendOutput(slices.Clone(header), (*js.sums)[:js.seriesLen], 0), js.seriesLen
}

// inOrder is 0, 1, …, n−1: the chunk order.
func inOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// runJob encodes chunks, executes every scatter task, folds the outputs in
// the order given and returns the decode task, its series length and the
// truth the executed decode task answers with.
func runJob(t testing.TB, header []byte, chunks [][]socialsensing.Report, origin time.Time, grid time.Duration, order []int) (decode []byte, n int, truth []byte) {
	t.Helper()
	payloads, intervals, err := encodeJob(chunks, origin, grid)
	if err != nil {
		t.Fatal(err)
	}
	outputs := make([][]byte, len(payloads))
	for i, p := range payloads {
		if outputs[i], err = ExecuteTask(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	decode, n = mergeJob(t, header, outputs, intervals, order)
	if truth, err = ExecuteTask(context.Background(), decode); err != nil {
		t.Fatal(err)
	}
	return decode, n, truth
}

// randomSplit cuts reports into k chunks at random points, empty chunks
// included.
func randomSplit(rng *rand.Rand, reports []socialsensing.Report, k int) [][]socialsensing.Report {
	cuts := make([]int, k-1)
	for i := range cuts {
		cuts[i] = rng.Intn(len(reports) + 1)
	}
	slices.Sort(cuts)
	chunks, start := make([][]socialsensing.Report, 0, k), 0
	for _, c := range append(cuts, len(reports)) {
		chunks = append(chunks, reports[start:c])
		start = c
	}
	return chunks
}

// TestMergeOrderIndependentBits is the property integer sums buy: for
// generated Boston claims and a claim of scores of wildly different
// magnitudes, any permutation of the reports, any split into 1–8 chunks
// and any arrival order of the scatter outputs give the very output bytes
// one chunk in report order gives, and so the same decode task and the
// same truth bytes. A lost task adds nothing: the job's sums are those of
// the chunks that answered.
func TestMergeOrderIndependentBits(t *testing.T) {
	gen, err := tracegen.New(tracegen.BostonBombing(), 11)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate(0.02)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	byClaim := tr.ReportsByClaim()
	claims := [][]socialsensing.Report{byClaim[tr.Claims[0].ID], byClaim[tr.Claims[1].ID]}
	// Scores of every magnitude from 1 down to 1e-8, piled into a few
	// intervals: float sums of these would show their addition order.
	mixed := make([]socialsensing.Report, 3000)
	for i := range mixed {
		mixed[i] = socialsensing.Report{
			Claim: "mixed", Timestamp: tr.Start.Add(time.Duration(rng.Intn(40)) * time.Minute),
			Attitude: socialsensing.Attitude(1 - 2*rng.Intn(2)), Uncertainty: rng.Float64(),
			Independence: rng.Float64() * math.Pow(10, -float64(rng.Intn(9))),
		}
	}
	claims = append(claims, mixed)
	header := appendDecodeHeader(nil, 5, core.DefaultDecoderConfig())
	for c, reports := range claims {
		for _, grid := range []time.Duration{time.Minute, time.Hour} {
			one := [][]socialsensing.Report{reports}
			wantDecode, wantN, wantTruth := runJob(t, header, one, tr.Start, grid, []int{0})
			payloads, _, err := encodeJob(one, tr.Start, grid)
			if err != nil {
				t.Fatal(err)
			}
			output, err := ExecuteTask(context.Background(), payloads[0])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantDecode[len(header):], output) {
				t.Fatalf("claim %d grid %s: the decode task of one chunk does not carry its output", c, grid)
			}
			for trial := 0; trial < 12; trial++ {
				perm := slices.Clone(reports)
				rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
				chunks := randomSplit(rng, perm, 1+rng.Intn(8))
				decode, n, truth := runJob(t, header, chunks, tr.Start, grid, rng.Perm(len(chunks)))
				if !bytes.Equal(decode, wantDecode) || n != wantN || !bytes.Equal(truth, wantTruth) {
					t.Fatalf("claim %d grid %s trial %d (%d chunks): decode task, series length or truth differ from one chunk in report order",
						c, grid, trial, len(chunks))
				}
			}
			// A lost task: its sums are missing, nothing else.
			chunks := randomSplit(rng, reports, 4)
			payloads, intervals, err := encodeJob(chunks, tr.Start, grid)
			if err != nil {
				t.Fatal(err)
			}
			outputs := make([][]byte, len(payloads))
			for i, p := range payloads {
				if outputs[i], err = ExecuteTask(context.Background(), p); err != nil {
					t.Fatal(err)
				}
			}
			lost := rng.Intn(len(chunks))
			outputs[lost] = nil
			got, _ := mergeJob(t, nil, outputs, intervals, rng.Perm(len(chunks)))
			ref := make(map[int]int64)
			for i, chunk := range chunks {
				if i != lost {
					for idx, v := range refTaskSums(t, chunk, tr.Start, grid) {
						ref[idx] += v
					}
				}
			}
			if !bytes.Equal(got, listed(ref)) {
				t.Fatalf("claim %d grid %s: with task %d lost the merge is not the others' sums", c, grid, lost)
			}
		}
	}
}

// listed is the output v2 of sums as an output lists them: the non-zero
// sums and always the highest interval.
func listed(sums map[int]int64) []byte {
	top := -1
	for idx := range sums {
		top = max(top, idx)
	}
	kept := make(map[int]int64, len(sums))
	for idx, v := range sums {
		if v != 0 || idx == top {
			kept[idx] = v
		}
	}
	return outputOf(kept)
}

// TestWorkerSeriesMatchesAccumulator holds the two paths to one claim's
// ACS series to each other bit for bit: core.ACSAccumulator fed the
// claim's reports one by one, and the series the decode worker builds out
// of the decode task the cluster merges from 1, 3, 4 or 8 scatter tasks —
// for every claim of the seed-42 Boston and College Football traces.
func TestWorkerSeriesMatchesAccumulator(t *testing.T) {
	header := appendDecodeHeader(nil, core.DefaultACSConfig().WindowIntervals, core.DefaultDecoderConfig())
	for _, prof := range []tracegen.Profile{tracegen.BostonBombing(), tracegen.CollegeFootball()} {
		gen, err := tracegen.New(prof, 42)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := gen.Generate(0.05)
		if err != nil {
			t.Fatal(err)
		}
		byClaim := tr.ReportsByClaim()
		for _, c := range tr.Claims {
			acc, err := core.NewACSAccumulator(core.DefaultACSConfig(), tr.Start)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range byClaim[c.ID] {
				if err := acc.Add(r); err != nil {
					t.Fatal(err)
				}
			}
			want := acc.Series()
			for _, tasks := range []int{1, 3, 4, 8} {
				chunks := splitReports(byClaim[c.ID], tasks)
				payloads, intervals, err := encodeJob(chunks, tr.Start, core.DefaultACSConfig().Interval)
				if err != nil {
					t.Fatal(err)
				}
				outputs := make([][]byte, len(payloads))
				for i, p := range payloads {
					if outputs[i], err = ExecuteTask(context.Background(), p); err != nil {
						t.Fatal(err)
					}
				}
				decode, _ := mergeJob(t, header, outputs, intervals, inOrder(len(outputs)))
				var got []float64
				if _, err := readDecodeTask(decode, &got); err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s claim %s tasks=%d: worker series of %d intervals, accumulator's %d", prof.Name, c.ID, tasks, len(got), len(want))
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s claim %s tasks=%d: interval %d is %v on the worker, %v in the accumulator",
							prof.Name, c.ID, tasks, i, got[i], want[i])
					}
				}
			}
		}
	}
}
