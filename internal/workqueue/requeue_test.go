package workqueue

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// crashLoopTask runs one crash-loop iteration against the master: a
// fresh worker connects, says hello, waits for a task assignment, and
// drops the connection the moment it has one — the tightest retry cycle
// a failing worker can induce. Returns false once the deadline passes
// without an assignment (the task is sitting in backoff).
func crashLoopTask(t *testing.T, ctx context.Context, m *Master, id string, deadline time.Time) bool {
	t.Helper()
	server, client := net.Pipe()
	handlerDone := make(chan struct{})
	go func() {
		_ = m.HandleWorker(ctx, server)
		close(handlerDone)
	}()
	defer func() {
		_ = client.Close()
		<-handlerDone
	}()
	_ = client.SetReadDeadline(deadline)
	c := newCodec(client)
	if err := c.send(message{Type: msgHello, WorkerID: id}); err != nil {
		return false
	}
	for {
		msg, err := c.recv()
		if err != nil {
			return false // deadline hit while the task backs off
		}
		if msg.Type == msgTaskBatch {
			return true // crash with the task in flight
		}
		if msg.Type == msgShutdown {
			return false
		}
	}
}

// countCrashes hammers the master with crash-looping workers until the
// deadline and reports how many times a task was actually lost.
func countCrashes(t *testing.T, ctx context.Context, m *Master, label string, d time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(d)
	crashes := 0
	for i := 0; time.Now().Before(deadline); i++ {
		if crashLoopTask(t, ctx, m, fmt.Sprintf("%s-%d", label, i), deadline) {
			crashes++
		}
	}
	return crashes
}

// TestRequeueBackoffBoundsRetryRate is the regression test for the hot
// requeue cycle: before backoff, a crash-looping worker re-acquired the
// same task immediately after every loss, spinning the
// assign/lose/requeue loop at CPU speed. With the default backoff the
// retry count over a fixed window must stay small (the delay series
// 5ms, 10ms, 20ms, ... covers the window in ~8 attempts), while the
// explicitly disabled configuration still spins — proving the test
// would catch the regression.
func TestRequeueBackoffBoundsRetryRate(t *testing.T) {
	const window = 600 * time.Millisecond

	run := func(backoff BackoffConfig) int64 {
		reg := obs.NewRegistry()
		m := NewMaster(MasterConfig{RequeueBackoff: backoff, Metrics: reg})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if err := m.Submit(Task{ID: "t-hot", JobID: "j"}); err != nil {
			t.Fatal(err)
		}
		countCrashes(t, ctx, m, "crasher", window)
		m.Shutdown()
		return reg.Snapshot().Counters["wq_task_retries_total"]
	}

	backed := run(BackoffConfig{}) // zero value = default schedule
	if backed < 2 {
		t.Fatalf("crash loop barely exercised requeue: %d retries", backed)
	}
	if backed > 20 {
		t.Fatalf("backoff failed to pace the requeue cycle: %d retries in %v (want <= 20)", backed, window)
	}

	hot := run(BackoffConfig{Base: -1}) // disabled = pre-backoff behavior
	if hot < backed*2 {
		t.Fatalf("immediate requeue should spin far faster than backed-off (%d vs %d) — is the regression guard still meaningful?", hot, backed)
	}
	t.Logf("retries in %v: %d with backoff, %d without", window, backed, hot)
}

// TestQuarantineCapIsGlobal quarantines tasks of many jobs past the
// retention cap and expects the cap to hold for the master as a whole:
// exactly quarantineRetention entries, the oldest ones dropped.
func TestQuarantineCapIsGlobal(t *testing.T) {
	m := NewMaster(MasterConfig{MaxRetries: 1, RequeueBackoff: BackoffConfig{Base: -1}, ResultBuffer: 256})
	defer m.Shutdown()
	const n = quarantineRetention + 2
	for i := 0; i < n; i++ {
		task := Task{ID: fmt.Sprintf("t%03d", i), JobID: fmt.Sprintf("j%d", i)}
		if err := m.Submit(task); err != nil {
			t.Fatal(err)
		}
		m.requeue(m.dispatchNext(t, "w")) // first loss: back into the pool
		m.requeue(m.dispatchNext(t, "w")) // second loss exhausts MaxRetries: quarantined
	}
	q := m.Quarantined()
	if len(q) != quarantineRetention {
		t.Fatalf("%d tasks quarantined, want the cap %d", len(q), quarantineRetention)
	}
	if first, last := q[0].Task.ID, q[len(q)-1].Task.ID; first != "t002" || last != fmt.Sprintf("t%03d", n-1) {
		t.Fatalf("quarantine holds %s..%s, want t002..t%03d (the two oldest dropped)", first, last, n-1)
	}
}

// TestQuarantineTripsRecorder: a quarantine is one of the triggers that
// trip the master's flight recorder (DESIGN's flight-recorder section),
// so the deep dive holds the history that led up to the poisoned task.
func TestQuarantineTripsRecorder(t *testing.T) {
	mrec := mustRecorder(t)
	m := NewMaster(MasterConfig{MaxRetries: 1, RequeueBackoff: BackoffConfig{Base: -1}, ResultBuffer: 4, FlightRec: mrec})
	defer m.Shutdown()
	task := Task{ID: "poison", JobID: "j"}
	if err := m.Submit(task); err != nil {
		t.Fatal(err)
	}
	m.requeue(m.dispatchNext(t, "w"))
	m.requeue(m.dispatchNext(t, "w"))
	mrec.Wait()
	if d := mrec.Dumps(); len(d) != 1 || d[0].Trigger != flightrec.TrigQuarantine {
		t.Fatalf("dumps after a quarantine: %+v, want one %s dump", d, flightrec.TrigQuarantine)
	}
}

// TestQuarantineLifecycle walks a poison task end to end: it exhausts
// MaxRetries against crash-looping workers and lands in quarantine with a
// failed Result, so its job finishes instead of stalling.
func TestQuarantineLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMaster(MasterConfig{
		MaxRetries:     2,
		RequeueBackoff: BackoffConfig{Base: time.Millisecond, Max: 2 * time.Millisecond},
		Metrics:        reg,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer m.Shutdown()

	if err := m.Submit(Task{ID: "poison", JobID: "j", Payload: []byte("boom")}); err != nil {
		t.Fatal(err)
	}

	// Crash until the retry budget (2) is exhausted: losses 1 and 2
	// requeue, loss 3 quarantines and emits the failed Result.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 3; i++ {
		if !crashLoopTask(t, ctx, m, fmt.Sprintf("crasher-%d", i), deadline) {
			t.Fatalf("crash %d never got the task assigned", i)
		}
	}
	var failed Result
	select {
	case failed = <-m.Results():
	case <-time.After(10 * time.Second):
		t.Fatal("no failed result after retry exhaustion")
	}
	if failed.TaskID != "poison" || !strings.Contains(failed.Err, "quarantined") {
		t.Fatalf("want quarantine failure for poison, got %+v", failed)
	}
	if !failed.Retried {
		t.Fatal("the quarantine result does not carry the Retried mark")
	}

	q := m.Quarantined()
	if len(q) != 1 || q[0].Task.ID != "poison" || q[0].Attempts != 3 {
		t.Fatalf("unexpected quarantine contents: %+v", q)
	}
	if got := reg.Snapshot().Counters["wq_tasks_quarantined_total"]; got != 1 {
		t.Fatalf("quarantine counter = %d, want 1", got)
	}
}
