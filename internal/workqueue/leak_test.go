package workqueue

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
)

// TestMasterTaskStateDrains is the regression test for per-task state
// leaks: after a fully drained run — including tasks lost to a worker
// failure and retried — the master's inflight and attempts maps and the
// scheduler's per-job queue/priority maps must all be empty again.
func TestMasterTaskStateDrains(t *testing.T) {
	m := NewMaster(MasterConfig{Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// One worker joins, takes a task, and vanishes mid-flight so the
	// task is requeued and picks up an attempts entry.
	mconn, wconn := pipePair()
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		_ = m.HandleWorker(ctx, mconn)
	}()
	c := newCodec(wconn)
	if err := c.send(message{Type: msgHello, WorkerID: "flaky"}); err != nil {
		t.Fatal(err)
	}

	const jobs, tasksPerJob = 3, 4
	for j := 0; j < jobs; j++ {
		jobID := fmt.Sprintf("job-%d", j)
		m.SetJobPriority(jobID, float64(j+1))
		for i := 0; i < tasksPerJob; i++ {
			task := Task{ID: fmt.Sprintf("%s/%d", jobID, i), JobID: jobID, Payload: []byte("x")}
			if err := m.Submit(task); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Receive one task, then drop the connection without replying.
	msg, err := c.recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != msgTaskBatch {
		t.Fatalf("flaky worker got %q, want %s", msg.Type, msgTaskBatch)
	}
	_ = c.close()
	<-handlerDone

	if _, attempts := m.taskStateSizes(); attempts != 1 {
		t.Fatalf("attempts after worker loss = %d, want 1", attempts)
	}

	// A healthy pool drains everything, including the retried task.
	pool := NewPool(m, echoExec)
	pool.Resize(ctx, 2)
	results := collect(t, m, jobs*tasksPerJob)
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("task %s failed: %s", r.TaskID, r.Err)
		}
	}

	inflight, attempts := m.taskStateSizes()
	if inflight != 0 || attempts != 0 {
		t.Errorf("per-task state after drained run: inflight=%d attempts=%d, want 0/0", inflight, attempts)
	}
	queues, priorities := m.sched.jobStateSizes()
	if queues != 0 || priorities != 0 {
		t.Errorf("scheduler state after drained run: queues=%d priorities=%d, want 0/0", queues, priorities)
	}
	if n := m.QueueLen(); n != 0 {
		t.Errorf("queue length after drained run = %d, want 0", n)
	}
	// The stats rows stay until the submitter says the jobs are over; a
	// priority set on a job it then forgets goes with them.
	if got := len(m.AllStats()); got != jobs {
		t.Errorf("%d stats rows after drained run, want %d", got, jobs)
	}
	m.SetJobPriority("job-0", 3)
	for j := 0; j < jobs; j++ {
		m.ForgetJob(fmt.Sprintf("job-%d", j))
	}
	if _, priorities := m.sched.jobStateSizes(); len(m.AllStats()) != 0 || priorities != 0 {
		t.Errorf("after ForgetJob: %d stats rows, %d scheduler entries, want 0/0", len(m.AllStats()), priorities)
	}

	pool.Close()
	m.Shutdown()
}

// TestMasterClosedRequeueDropsAttempts covers the shutdown path: a task
// lost while the master is closing must not leave an attempts entry.
func TestMasterClosedRequeueDropsAttempts(t *testing.T) {
	m := NewMaster(MasterConfig{})
	task := Task{ID: "t1", JobID: "job"}
	if err := m.Submit(task); err != nil {
		t.Fatal(err)
	}
	m.Shutdown()
	m.requeue(task)
	if inflight, attempts := m.taskStateSizes(); inflight != 0 || attempts != 0 {
		t.Errorf("state after closed requeue: inflight=%d attempts=%d, want 0/0", inflight, attempts)
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
