package dtm

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

// TestCloseWithResultsBacklog: Close used to hang once the master held
// more task results than its Results channel buffers, because the
// collector stopped receiving at cancellation while the pool's connection
// handlers, which Close waits for, were still blocked delivering. Nobody
// reads Results() here, so the collector stalls behind a full job-result
// channel, the master's buffer fills, and every handler ends up blocked in
// delivery with the rest of the tasks still queued — then Close must
// return.
func TestCloseWithResultsBacklog(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	cfg.Workers = 4
	cfg.TasksPerJob = 1 // every task result finishes a job
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())

	// Enough single-task jobs to fill the job-result channel, the
	// master's result buffer and every handler, with some left over.
	jobs := cap(m.results) + cap(m.master.Results()) + 4*cfg.Workers
	for j := 0; j < jobs; j++ {
		claim := socialsensing.ClaimID(fmt.Sprintf("c%d", j))
		if err := m.SubmitJob(claim, flipReports(claim, 10, 5, 2, 0.1, int64(j)), 0); err != nil {
			t.Fatal(err)
		}
	}
	for start := time.Now(); len(m.master.Results()) < cap(m.master.Results()); time.Sleep(time.Millisecond) {
		if time.Since(start) > 20*time.Second {
			t.Fatalf("backlog never built: %d/%d task results pending", len(m.master.Results()), cap(m.master.Results()))
		}
	}

	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return within 5s with a backlog of task results")
	}
}
