package dtm

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

// The ref* functions are the map-based task body and merge the codec
// replaced, kept as the reference the tests compare against: same addends,
// same order, so the float bits must agree.

// refTaskSums is one task's sparse partial sums, accumulated in report
// order.
func refTaskSums(chunk []socialsensing.Report, origin time.Time, interval time.Duration) map[int]float64 {
	sums := make(map[int]float64)
	for _, r := range chunk {
		idx := 0
		if r.Timestamp.After(origin) {
			idx = int(r.Timestamp.Sub(origin) / interval)
		}
		sums[idx] += r.ContributionScore()
	}
	return sums
}

// refMerge folds the tasks' sums (nil for a failed task) into
// mergeShardCount accumulators in chunk order, then the accumulators in
// shard order, and returns the dense result.
func refMerge(tasks []map[int]float64) []float64 {
	shards := make([]map[int]float64, mergeShardCount)
	for s := range shards {
		shards[s] = make(map[int]float64)
	}
	for i, sums := range tasks {
		for idx, v := range sums {
			shards[i%mergeShardCount][idx] += v
		}
	}
	merged := make(map[int]float64)
	maxIdx := -1
	for _, sh := range shards {
		for idx, v := range sh {
			merged[idx] += v
			maxIdx = max(maxIdx, idx)
		}
	}
	dense := make([]float64, maxIdx+1)
	for idx, v := range merged {
		dense[idx] = v
	}
	return dense
}

// outputOf encodes sums as a v1 task output listing every entry.
func outputOf(sums map[int]float64) []byte {
	idxs := make([]int, 0, len(sums))
	for idx := range sums {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	out := binary.AppendUvarint([]byte{payloadVersion}, uint64(len(idxs)))
	prev := 0
	for _, idx := range idxs {
		out = binary.AppendUvarint(out, uint64(idx-prev))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(sums[idx]))
		prev = idx
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMergeOrderIndependentBits fills the same per-task outputs in in many
// random arrival orders, each time with a different random set of tasks
// lost, and requires the merged floats to be bit-identical to the map-based
// reference merge of the tasks that survived: the fold is a function of
// the task set, not of the order results arrived in.
func TestMergeOrderIndependentBits(t *testing.T) {
	const tasks = 17
	const intervals = 9
	rng := rand.New(rand.NewSource(42))
	// Sums chosen to make float addition order visible: wildly different
	// magnitudes so (a+b)+c != a+(b+c) in the low bits.
	taskSums := make([]map[int]float64, tasks)
	outputs := make([][]byte, tasks)
	for i := range taskSums {
		taskSums[i] = make(map[int]float64, intervals)
		for k := 0; k < intervals; k++ {
			taskSums[i][k] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(13)-6))
		}
		outputs[i] = outputOf(taskSums[i])
	}
	order := rng.Perm(tasks)
	for trial := 0; trial < 50; trial++ {
		arrived, survived := make([][]byte, tasks), make([]map[int]float64, tasks)
		for _, i := range order {
			if trial > 0 && rng.Intn(4) == 0 {
				continue // lost
			}
			arrived[i], survived[i] = outputs[i], taskSums[i]
		}
		got, err := foldOutputs(t, arrived, intervals)
		if want := refMerge(survived); err != nil || !sameBits(got, want) {
			t.Fatalf("trial %d: merged %v, %v, want %v", trial, got, err, want)
		}
		rng.Shuffle(tasks, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
}

// mergedSums reads a job's merged sums the way a worker does: out of the
// output v1 that ends its decode task, folded into a dense buffer.
func mergedSums(t testing.TB, outputs [][]byte, intervals int) []float64 {
	t.Helper()
	payload, n := mergeOutputs(nil, outputs, intervals)
	got, err := checkOutput(payload, max(n, 1))
	if err != nil || got != n {
		t.Fatalf("decode task carries a series of %d, %v; the merge says %d", got, err, n)
	}
	sums := make([]float64, n)
	foldOutput(sums, payload)
	return sums
}

// foldOutputs merges one job's task outputs — outputs[i] from the task
// that ran chunk i, nil for a failed one — the way handleResult and
// submitDecode do: each checked in full, then folded by chunk index.
func foldOutputs(t testing.TB, outputs [][]byte, intervals int) ([]float64, error) {
	for _, out := range outputs {
		if out != nil {
			if _, err := checkOutput(out, intervals); err != nil {
				return nil, err
			}
		}
	}
	return mergedSums(t, outputs, intervals), nil
}

// TestMergeFailedTaskUnblocksShard checks that a failed task (nil output)
// costs its shard nothing but its own sums: the later tasks of the same
// shard still fold, and the failure itself adds nothing.
func TestMergeFailedTaskUnblocksShard(t *testing.T) {
	n := 2 * mergeShardCount
	outputs := make([][]byte, n)
	for i := 1; i < n; i++ {
		outputs[i] = outputOf(map[int]float64{0: 1})
	}
	got := mergedSums(t, outputs, 1)
	if want := float64(n - 1); len(got) != 1 || got[0] != want {
		t.Fatalf("merged sums = %v, want [%v] (failed task blocked or double-counted its shard)", got, want)
	}
}
