package workqueue

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
)

// TestMasterTaskStateDrains is the regression test for per-task state
// leaks. Along each path a task's record can take — requeued after a
// backoff, quarantined, or still backing off at Shutdown — every
// submitted task yields exactly one Result and the master ends holding no
// task record. A drained run leaves no job queued, and ForgetJob empties
// the scheduler's per-job map.
func TestMasterTaskStateDrains(t *testing.T) {
	const jobs, tasksPerJob = 3, 4
	const n = jobs * tasksPerJob
	// start submits the tasks, then loses one of them to a worker that
	// takes it and drops the connection.
	start := func(t *testing.T, cfg MasterConfig) (*Master, *Pool, context.Context) {
		cfg.ResultBuffer = 2 * n
		m := NewMaster(cfg)
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		for j := 0; j < jobs; j++ {
			jobID := fmt.Sprintf("job-%d", j)
			m.SetJobPriority(jobID, float64(j+1))
			for i := 0; i < tasksPerJob; i++ {
				if err := m.Submit(Task{ID: fmt.Sprintf("%s/%d", jobID, i), JobID: jobID, Payload: []byte("x")}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !crashLoopTask(t, ctx, m, "flaky", time.Now().Add(5*time.Second)) {
			t.Fatal("the flaky worker got no task")
		}
		return m, NewPool(m, echoExec), ctx
	}
	// finish shuts the master down, then checks every task has exactly one
	// Result, got holding those already read, and no record is left.
	finish := func(t *testing.T, m *Master, pool *Pool, got []Result) []Result {
		pool.Close()
		m.Shutdown()
		for r := range m.Results() {
			got = append(got, r)
		}
		per := map[string]int{}
		for _, r := range got {
			per[r.TaskID]++
		}
		if len(per) != n || len(got) != n {
			t.Errorf("%d results for %d tasks, want one for each of %d", len(got), len(per), n)
		}
		if k := m.taskStateSize(); k != 0 {
			t.Errorf("%d task records after Shutdown, want 0", k)
		}
		return got
	}

	t.Run("requeue-after-backoff", func(t *testing.T) {
		m, pool, ctx := start(t, MasterConfig{Seed: 1, RequeueBackoff: BackoffConfig{Base: 200 * time.Millisecond, Max: time.Second}})
		if k, q := m.taskStateSize(), m.QueueLen(); k != 1 || q != n-1 {
			t.Fatalf("after the loss: %d records, %d queued; want 1, %d (one backing off)", k, q, n-1)
		}
		// Back in the queue, the task holds no record.
		waitFor(t, func() bool { return m.QueueLen() == n }, "the backoff to fire")
		if k := m.taskStateSize(); k != 0 {
			t.Fatalf("%d records with every task queued, want 0", k)
		}
		// A healthy pool drains everything, the retried task included.
		pool.Resize(ctx, 2)
		got := collect(t, m, n)
		for _, r := range got {
			if r.Err != "" {
				t.Fatalf("task %s failed: %s", r.TaskID, r.Err)
			}
		}
		if k := m.taskStateSize(); k != 0 {
			t.Errorf("%d task records after a drained run, want 0", k)
		}
		// The jobs keep their entries, priorities included, until the
		// submitter forgets them below.
		if queues, _ := m.sched.jobStateSizes(); queues != 0 {
			t.Errorf("scheduler state after drained run: queues=%d, want 0", queues)
		}
		if q := m.QueueLen(); q != 0 {
			t.Errorf("queue length after drained run = %d, want 0", q)
		}
		// The stats rows stay until the submitter says the jobs are over; a
		// priority set on a job it then forgets goes with them.
		if rows := len(m.AllStats()); rows != jobs {
			t.Errorf("%d stats rows after drained run, want %d", rows, jobs)
		}
		m.SetJobPriority("job-0", 3)
		for j := 0; j < jobs; j++ {
			m.ForgetJob(fmt.Sprintf("job-%d", j))
		}
		if _, priorities := m.sched.jobStateSizes(); len(m.AllStats()) != 0 || priorities != 0 {
			t.Errorf("after ForgetJob: %d stats rows, %d scheduler entries, want 0/0", len(m.AllStats()), priorities)
		}
		finish(t, m, pool, got)
	})

	t.Run("quarantine", func(t *testing.T) {
		m, pool, ctx := start(t, MasterConfig{MaxRetries: 1, RequeueBackoff: BackoffConfig{Base: -1}})
		// Every further loss retries or quarantines one task; by
		// pigeonhole one is lost twice within n more.
		for i := 0; len(m.Quarantined()) == 0; i++ {
			if i == n || !crashLoopTask(t, ctx, m, fmt.Sprintf("flaky-%d", i), time.Now().Add(5*time.Second)) {
				t.Fatalf("no task quarantined after %d losses", i+1)
			}
		}
		if k := m.taskStateSize(); k != 0 {
			t.Errorf("%d records with every lost task queued or quarantined, want 0", k)
		}
		pool.Resize(ctx, 2)
		got := finish(t, m, pool, collect(t, m, n))
		failed := 0
		for _, r := range got {
			if r.Err != "" {
				failed++
			}
		}
		if q := len(m.Quarantined()); failed != q {
			t.Errorf("%d failed results for %d quarantined tasks", failed, q)
		}
	})

	t.Run("shutdown-during-backoff", func(t *testing.T) {
		tr := obs.NewTracer(0)
		m, pool, ctx := start(t, MasterConfig{RequeueBackoff: BackoffConfig{Base: time.Hour, Max: time.Hour}, Tracer: tr})
		pool.Resize(ctx, 2)
		got := finish(t, m, pool, collect(t, m, n-1))
		last := got[len(got)-1]
		if last.Err != errShutdown || !last.Retried {
			t.Errorf("the task backing off at Shutdown got %+v, want a retried %q failure", last, errShutdown)
		}
		// No span is left open: a queue and an exec span per task, and for
		// the lost task a second queue span, which Shutdown finishes.
		if got := tr.Total(); got != 2*n+1 {
			t.Errorf("%d spans finished, want %d", got, 2*n+1)
		}
		outcome := map[string]string{}
		for _, s := range tr.Spans() {
			outcome[s.Name] += s.Attrs["outcome"] + ";"
		}
		if o := outcome["queue "+last.TaskID]; o != ";shutdown;" {
			t.Errorf("queue spans of the lost task end %q, want one plain and one \"shutdown\"", o)
		}
		if o := outcome["exec "+last.TaskID]; o != "lost;" {
			t.Errorf("exec span of the lost task ends %q, want \"lost\"", o)
		}
	})
}

// TestMasterClosedRequeueDropsAttempts covers the shutdown path: a task
// still queued at Shutdown is reported once, and a requeue after that
// must not leave a record.
func TestMasterClosedRequeueDropsAttempts(t *testing.T) {
	m := NewMaster(MasterConfig{})
	task := Task{ID: "t1", JobID: "job"}
	if err := m.Submit(task); err != nil {
		t.Fatal(err)
	}
	m.Shutdown()
	m.requeue(task)
	if k := m.taskStateSize(); k != 0 {
		t.Errorf("%d task records after a closed requeue, want 0", k)
	}
	var got []Result
	for r := range m.Results() {
		got = append(got, r)
	}
	if len(got) != 1 || got[0].TaskID != "t1" || got[0].Err != errShutdown {
		t.Errorf("results after Shutdown = %+v, want one %q failure for t1", got, errShutdown)
	}
}

// TestMasterTelemetryCounts wires a registry and tracer through a small
// run and checks the task lifecycle metrics add up.
func TestMasterTelemetryCounts(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	m := NewMaster(MasterConfig{Metrics: reg, Tracer: tr})
	ctx := context.Background()
	pool := NewPool(m, echoExec)
	pool.Resize(ctx, 2)

	const n = 6
	for i := 0; i < n; i++ {
		if err := m.Submit(Task{ID: fmt.Sprintf("t%d", i), JobID: "job", Payload: []byte("p")}); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, m, n)
	pool.Close()
	m.Shutdown()

	s := reg.Snapshot()
	if got := s.Counters["wq_tasks_submitted_total"]; got != n {
		t.Errorf("submitted counter = %d, want %d", got, n)
	}
	if got := s.Counters["wq_tasks_completed_total"]; got != n {
		t.Errorf("completed counter = %d, want %d", got, n)
	}
	if got := s.Histograms["wq_task_exec_ms"].Count; got != n {
		t.Errorf("exec histogram count = %d, want %d", got, n)
	}
	if got := s.Histograms["wq_task_queue_wait_ms"].Count; got != n {
		t.Errorf("queue-wait histogram count = %d, want %d", got, n)
	}
	// Every task leaves a queue span and an exec span.
	if got := tr.Total(); got != 2*n {
		t.Errorf("span count = %d, want %d", got, 2*n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for reg.Gauge("wq_workers").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("wq_workers gauge = %v, want 0 after shutdown", reg.Gauge("wq_workers").Value())
		}
		time.Sleep(time.Millisecond)
	}
}
