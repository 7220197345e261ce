package workqueue

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoExec returns the payload, uppercased.
func echoExec(_ context.Context, payload []byte) ([]byte, error) {
	return []byte(strings.ToUpper(string(payload))), nil
}

// collect drains n results from the master.
func collect(t *testing.T, m *Master, n int) []Result {
	t.Helper()
	out := make([]Result, 0, n)
	timeout := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case r, ok := <-m.Results():
			if !ok {
				t.Fatalf("results closed after %d/%d", len(out), n)
			}
			out = append(out, r)
		case <-timeout:
			t.Fatalf("timed out after %d/%d results", len(out), n)
		}
	}
	return out
}

func TestMasterPoolRoundTrip(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{Seed: 1, ResultBuffer: 64})
	p := NewPool(m, echoExec)
	defer p.Close()
	p.Resize(ctx, 4)

	const n = 40
	for i := 0; i < n; i++ {
		err := m.Submit(Task{
			ID:      fmt.Sprintf("t%d", i),
			JobID:   fmt.Sprintf("job%d", i%4),
			Payload: []byte(fmt.Sprintf("payload-%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	results := collect(t, m, n)
	seen := make(map[string]bool)
	for _, r := range results {
		if r.Err != "" {
			t.Errorf("task %s failed: %s", r.TaskID, r.Err)
		}
		if !strings.HasPrefix(string(r.Output), "PAYLOAD-") {
			t.Errorf("task %s output = %q", r.TaskID, r.Output)
		}
		seen[r.TaskID] = true
	}
	if len(seen) != n {
		t.Errorf("distinct completed tasks = %d, want %d", len(seen), n)
	}
	for _, js := range m.AllStats() {
		if !js.Done() {
			t.Errorf("job %s not done: %+v", js.JobID, js)
		}
	}
}

func TestExecutorErrorsReported(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{ResultBuffer: 8})
	p := NewPool(m, func(_ context.Context, payload []byte) ([]byte, error) {
		if string(payload) == "boom" {
			return nil, errors.New("kaput")
		}
		return payload, nil
	})
	defer p.Close()
	p.Resize(ctx, 1)

	if err := m.Submit(Task{ID: "ok", JobID: "j", Payload: []byte("fine")}); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(Task{ID: "bad", JobID: "j", Payload: []byte("boom")}); err != nil {
		t.Fatal(err)
	}
	results := collect(t, m, 2)
	var okSeen, errSeen bool
	for _, r := range results {
		switch r.TaskID {
		case "ok":
			okSeen = r.Err == ""
		case "bad":
			// Failures carry provenance: worker, task and stage.
			errSeen = strings.Contains(r.Err, "kaput") &&
				strings.Contains(r.Err, "worker pool-worker-0") &&
				strings.Contains(r.Err, "task bad") &&
				r.ErrStage == StageExec
		}
	}
	if !okSeen || !errSeen {
		t.Errorf("results wrong: %+v", results)
	}
	js := m.Stats("j")
	if js.Completed != 1 || js.Failed != 1 {
		t.Errorf("stats = %+v, want 1 completed 1 failed", js)
	}
}

func TestPriorityBiasesScheduling(t *testing.T) {
	// One slow worker; two jobs with very different priorities submit
	// many tasks. The high priority job should finish its tasks earlier
	// on average.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{Seed: 42, ResultBuffer: 256})
	var order []string
	var mu sync.Mutex
	p := NewPool(m, func(_ context.Context, payload []byte) ([]byte, error) {
		mu.Lock()
		order = append(order, string(payload))
		mu.Unlock()
		return nil, nil
	})
	defer p.Close()

	const per = 50
	for i := 0; i < per; i++ {
		_ = m.Submit(Task{ID: fmt.Sprintf("hi%d", i), JobID: "high", Payload: []byte("high")})
		_ = m.Submit(Task{ID: fmt.Sprintf("lo%d", i), JobID: "low", Payload: []byte("low")})
	}
	m.SetJobPriority("high", 10)
	m.SetJobPriority("low", 0.1)
	p.Resize(ctx, 1) // start after priorities are set
	collect(t, m, 2*per)

	mu.Lock()
	defer mu.Unlock()
	// Mean completion index of high should be clearly earlier.
	sumHigh, sumLow := 0, 0
	for i, jid := range order {
		if jid == "high" {
			sumHigh += i
		} else {
			sumLow += i
		}
	}
	if !(sumHigh < sumLow) {
		t.Errorf("high-priority job not favored: meanIdx(high)=%d meanIdx(low)=%d", sumHigh/per, sumLow/per)
	}
}

func TestTCPWorkers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{ResultBuffer: 32})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = m.Serve(ctx, l) }()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{ID: fmt.Sprintf("tcp-%d", i), Exec: echoExec}
			_ = w.Dial(ctx, l.Addr().String())
		}(i)
	}

	// One worker echoes all twelve tasks in under a millisecond: submit
	// only once all three have registered, or the first to connect may
	// drain the queue alone.
	waitFor(t, func() bool { return m.WorkerCount() == 3 }, "TCP workers to attach")
	const n = 12
	for i := 0; i < n; i++ {
		if err := m.Submit(Task{ID: fmt.Sprintf("t%d", i), JobID: "j", Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	results := collect(t, m, n)
	workers := make(map[string]bool)
	for _, r := range results {
		workers[r.WorkerID] = true
	}
	if len(workers) < 2 {
		t.Errorf("work not spread across TCP workers: %v", workers)
	}
	cancel()
	wg.Wait()
}

func TestWorkerLossRequeuesTask(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{ResultBuffer: 8})

	// First worker dies mid-task: its connection is severed while the
	// executor hangs, so no result can ever arrive from it.
	started := make(chan struct{})
	mconn, wconn := pipePair()
	go func() { _ = m.HandleWorker(ctx, mconn) }()
	go func() {
		w := &Worker{ID: "flaky", Exec: func(c context.Context, _ []byte) ([]byte, error) {
			close(started)
			<-c.Done() // hang until the test tears down
			return nil, c.Err()
		}}
		_ = w.Run(ctx, wconn)
	}()

	if err := m.Submit(Task{ID: "t1", JobID: "j", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	<-started
	_ = wconn.Close() // abrupt worker loss while the task is in flight
	_ = mconn.Close()

	// A healthy worker joins and must pick up the requeued task.
	p := NewPool(m, echoExec)
	defer p.Close()
	p.Resize(ctx, 1)

	r := collect(t, m, 1)[0]
	if r.TaskID != "t1" || r.Err != "" || !r.Retried {
		t.Errorf("requeued task result = %+v, want it marked Retried", r)
	}
	// A task sent once is not.
	if err := m.Submit(Task{ID: "t2", JobID: "j", Payload: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	if r := collect(t, m, 1)[0]; r.TaskID != "t2" || r.Retried {
		t.Errorf("result of a task sent once = %+v, want it unmarked", r)
	}
}

func TestRetryLimitReportsFailure(t *testing.T) {
	// Workers that die on every attempt eventually exhaust the task's
	// retry budget, which must surface as a failed Result rather than
	// looping forever.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{ResultBuffer: 8, MaxRetries: 2})
	if err := m.Submit(Task{ID: "poison", JobID: "j", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	// Each "worker" accepts the task and drops the connection mid-run.
	for i := 0; i < 3; i++ {
		started := make(chan struct{})
		mconn, wconn := pipePair()
		go func() { _ = m.HandleWorker(ctx, mconn) }()
		go func() {
			w := &Worker{ID: fmt.Sprintf("dier-%d", i), Exec: func(c context.Context, _ []byte) ([]byte, error) {
				close(started)
				<-c.Done()
				return nil, c.Err()
			}}
			_ = w.Run(ctx, wconn)
		}()
		<-started
		_ = wconn.Close()
		_ = mconn.Close()
		// Give the requeue a moment to land before the next worker.
		waitFor(t, func() bool { return m.QueueLen() == 1 || m.Stats("j").Failed == 1 }, "requeue or failure")
		if m.Stats("j").Failed == 1 {
			break
		}
	}
	r := collect(t, m, 1)[0]
	if r.TaskID != "poison" || r.Err == "" {
		t.Errorf("result = %+v, want retry-limit failure", r)
	}
	js := m.Stats("j")
	if js.Failed != 1 || js.Completed != 0 {
		t.Errorf("stats = %+v", js)
	}
}

func TestGracefulReleaseFinishesCurrentTask(t *testing.T) {
	// A worker released mid-task must deliver its result before exiting.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{ResultBuffer: 8})
	block := make(chan struct{})
	started := make(chan struct{})
	mconn, wconn := pipePair()
	go func() { _ = m.HandleWorker(ctx, mconn) }()
	go func() {
		w := &Worker{ID: "release-me", Exec: func(_ context.Context, p []byte) ([]byte, error) {
			close(started)
			<-block
			return p, nil
		}}
		_ = w.Run(ctx, wconn)
	}()
	if err := m.Submit(Task{ID: "t1", JobID: "j", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	<-started
	m.Release("release-me")
	close(block) // let the task finish after the release
	r := collect(t, m, 1)[0]
	if r.Err != "" || r.WorkerID != "release-me" {
		t.Errorf("released worker result = %+v", r)
	}
	waitFor(t, func() bool { return m.WorkerCount() == 0 }, "released worker to detach")
}

func TestPoolResize(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{ResultBuffer: 8})
	p := NewPool(m, echoExec)
	defer p.Close()

	p.Resize(ctx, 5)
	if got := p.Size(); got != 5 {
		t.Errorf("Size after grow = %d, want 5", got)
	}
	waitFor(t, func() bool { return m.WorkerCount() == 5 }, "workers to attach")

	p.Resize(ctx, 2)
	if got := p.Size(); got != 2 {
		t.Errorf("Size after shrink = %d, want 2", got)
	}
	waitFor(t, func() bool { return m.WorkerCount() == 2 }, "workers to detach")

	p.Resize(ctx, -3)
	if got := p.Size(); got != 0 {
		t.Errorf("Size after negative resize = %d, want 0", got)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTaskTimeoutBudgetsTheWorker: the master hands 80% of TaskTimeout
// to the worker as the task's execution budget (Task.TimeoutNs), so a
// hung executor self-reports a StageExec timeout before the master's own
// deadline severs the link and requeues the task.
func TestTaskTimeoutBudgetsTheWorker(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{ResultBuffer: 4, TaskTimeout: time.Second})
	defer m.Shutdown()
	hang := func(c context.Context, _ []byte) ([]byte, error) {
		<-c.Done()
		return nil, c.Err()
	}
	mconn, wconn := pipePair()
	go func() { _ = m.HandleWorker(ctx, mconn) }()
	go func() { _ = (&Worker{ID: "w", Exec: hang}).Run(ctx, wconn) }()
	if err := m.Submit(Task{ID: "t", JobID: "j"}); err != nil {
		t.Fatal(err)
	}
	r := collect(t, m, 1)[0]
	if r.ErrStage != StageExec || !strings.Contains(r.Err, "budget") || r.Retried {
		t.Fatalf("hung task result = %+v, want the worker's own StageExec budget timeout, never requeued", r)
	}
}

// TestRedialGivesUpAfterMaxReconnects: Redial (sstd-worker's
// -reconnects) stops after MaxReconnects consecutive failed dials.
func TestRedialGivesUpAfterMaxReconnects(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close() // nothing listens there now
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- (&Worker{ID: "w", Exec: echoExec, MaxReconnects: 2}).Redial(ctx, addr) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "2 consecutive dial failures") {
			t.Fatalf("Redial returned %v, want it to give up after 2 failed dials", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Redial kept dialing past MaxReconnects")
	}
}

// TestWorkerRefusesMalformedMessages: a worker drops a master whose
// message it cannot act on rather than act on half of it.
func TestWorkerRefusesMalformedMessages(t *testing.T) {
	for _, tc := range []struct {
		msg     message
		wantErr string
	}{
		{message{Type: msgTaskBatch}, "task-batch message without tasks"},
		{message{Type: msgFreeze}, "freeze message without request"},
		{message{Type: msgHello, WorkerID: "m"}, "unexpected message"},
	} {
		mconn, wconn := pipePair()
		done := make(chan error, 1)
		go func() { done <- (&Worker{ID: "w", Exec: echoExec}).Run(context.Background(), wconn) }()
		c := newCodec(mconn)
		if _, err := c.recv(); err != nil {
			t.Fatal(err)
		}
		if err := c.send(tc.msg); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: worker returned %v, want %q", tc.msg.Type, err, tc.wantErr)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: worker kept the link", tc.msg.Type)
		}
		_ = c.close()
	}
}

// noCloseConn ignores Close, so a worker's cancelled context does not
// sever its link.
type noCloseConn struct{ net.Conn }

func (noCloseConn) Close() error { return nil }

// TestPreemptedTaskNotReported: a task whose executor fails because its
// worker is being preempted is not reported, so the master requeues it
// (Pool.Resize's hard preemption). A failed result would end the task
// instead, and degrade its job. The link stays up here: only the worker's
// own check keeps it from reporting.
func TestPreemptedTaskNotReported(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	mconn, wconn := pipePair()
	started := make(chan struct{})
	exec := func(c context.Context, _ []byte) ([]byte, error) {
		close(started)
		<-c.Done()
		return nil, c.Err()
	}
	ran := make(chan struct{})
	go func() { _ = (&Worker{ID: "w", Exec: exec}).Run(ctx, noCloseConn{wconn}); close(ran) }()
	c := newCodec(mconn)
	defer c.close()
	if _, err := c.recv(); err != nil {
		t.Fatal(err)
	}
	if err := c.send(message{Type: msgTaskBatch, Tasks: []Task{{ID: "t", JobID: "j"}}}); err != nil {
		t.Fatal(err)
	}
	<-started
	type recvd struct {
		m   message
		err error
	}
	next := make(chan recvd, 1)
	go func() {
		m, err := c.recv()
		next <- recvd{m, err}
	}()
	cancel()
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("preempted worker did not exit")
	}
	_ = wconn.Close()
	if r := <-next; r.err == nil {
		t.Fatalf("preempted worker sent %s %+v, want nothing", r.m.Type, r.m.Results)
	}
}

func TestSubmitAfterShutdownFails(t *testing.T) {
	m := NewMaster(MasterConfig{})
	m.Shutdown()
	if err := m.Submit(Task{ID: "t", JobID: "j"}); err == nil {
		t.Error("Submit after Shutdown accepted")
	}
	if _, ok := <-m.Results(); ok {
		t.Error("Results channel not closed after Shutdown")
	}
}

func TestSchedulerFIFOWithinJob(t *testing.T) {
	s := newScheduler(1)
	for i := 0; i < 10; i++ {
		s.push(Task{ID: fmt.Sprintf("t%d", i), JobID: "j"})
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		task, ok := s.next(ctx)
		if !ok {
			t.Fatal("scheduler closed early")
		}
		if want := fmt.Sprintf("t%d", i); task.ID != want {
			t.Fatalf("task %d = %s, want %s (FIFO violated)", i, task.ID, want)
		}
	}
}

func TestSchedulerNextHonorsContext(t *testing.T) {
	s := newScheduler(1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, ok := s.next(ctx); ok {
		t.Error("next returned a task from an empty pool")
	}
	if time.Since(start) > 3*time.Second {
		t.Error("next did not respect context deadline")
	}
}

func TestSchedulerCloseWakesWaiters(t *testing.T) {
	s := newScheduler(1)
	done := make(chan bool, 1)
	go func() {
		_, ok := s.next(context.Background())
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	s.close()
	select {
	case ok := <-done:
		if ok {
			t.Error("closed scheduler returned a task")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not wake waiter")
	}
}

func TestWorkerValidation(t *testing.T) {
	w := &Worker{}
	c1, c2 := pipePair()
	defer func() { _ = c1.Close(); _ = c2.Close() }()
	if err := w.Run(context.Background(), c2); err == nil {
		t.Error("worker without ID/Exec ran")
	}
}

// TestShutdownWithUndrainedResults: with more undelivered results than
// ResultBuffer and nobody reading Results(), every handler ends up blocked
// in delivery; Pool.Close must not wait behind them and Shutdown must
// release them instead of hanging.
func TestShutdownWithUndrainedResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{Seed: 1, ResultBuffer: 1})
	p := NewPool(m, func(context.Context, []byte) ([]byte, error) { return nil, nil })
	p.Resize(ctx, 2)
	for i := 0; i < 32; i++ {
		if err := m.Submit(Task{ID: fmt.Sprintf("t%d", i), JobID: "job"}); err != nil {
			t.Fatal(err)
		}
	}
	for start := time.Now(); m.WorkerCount() < 2 || len(m.Results()) < cap(m.Results()); time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("results backlog never built")
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Close()
		m.Shutdown()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Pool.Close + Shutdown did not return within 5s with undrained results")
	}
}
