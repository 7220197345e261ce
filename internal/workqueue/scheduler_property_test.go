package workqueue

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSchedulerPropertyCompleteAndFIFO: for any random push/pull
// interleaving, every pushed task is eventually delivered exactly once and
// tasks within a job come out in submission order.
func TestSchedulerPropertyCompleteAndFIFO(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newScheduler(seed)
		n := 1 + rng.Intn(60)
		jobs := 1 + rng.Intn(5)
		pushed := make([]Task, 0, n)
		for i := 0; i < n; i++ {
			task := Task{
				ID:    fmt.Sprintf("t%d", i),
				JobID: fmt.Sprintf("j%d", rng.Intn(jobs)),
			}
			s.push(task)
			pushed = append(pushed, task)
			// Occasionally retune priorities mid-stream.
			if rng.Intn(7) == 0 {
				s.setPriority(task.JobID, rng.Float64()*10)
			}
		}
		ctx := context.Background()
		seen := make(map[string]bool, n)
		lastPerJob := make(map[string]int)
		for i := 0; i < n; i++ {
			task, ok := s.next(ctx)
			if !ok {
				return false
			}
			if seen[task.ID] {
				return false // duplicate delivery
			}
			seen[task.ID] = true
			var idx int
			if _, err := fmt.Sscanf(task.ID, "t%d", &idx); err != nil {
				return false
			}
			if prev, ok := lastPerJob[task.JobID]; ok && idx < prev {
				return false // FIFO within job violated
			}
			lastPerJob[task.JobID] = idx
		}
		if s.len() != 0 {
			return false
		}
		return len(seen) == len(pushed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
