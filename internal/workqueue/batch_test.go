package workqueue

// Batching property tests: N tasks in → N acks out, order preserved per
// worker, partial batches flush promptly, lock-step is a window of one
// single-task frame, and a connection reset mid-batch loses no task. The
// in-process pool runs the real master handler and worker loop over
// net.Pipe, so these exercise the production dispatch window, not a
// model of it.

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBatchedRoundTripAllDelivered: the headline invariant — with
// batching on, every submitted task produces exactly one result.
func TestBatchedRoundTripAllDelivered(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{Seed: 1, ResultBuffer: 256, BatchSize: 8})
	p := NewPool(m, echoExec)
	defer p.Close()

	// Submit before growing the pool so the queue is deep enough for the
	// dispatcher to actually coalesce batches.
	const n = 200
	for i := 0; i < n; i++ {
		err := m.Submit(Task{
			ID:      fmt.Sprintf("t%03d", i),
			JobID:   fmt.Sprintf("job%d", i%4),
			Payload: []byte(fmt.Sprintf("payload-%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	p.Resize(ctx, 3)

	seen := make(map[string]bool)
	for _, r := range collect(t, m, n) {
		if r.Err != "" {
			t.Errorf("task %s failed: %s", r.TaskID, r.Err)
		}
		if seen[r.TaskID] {
			t.Errorf("task %s delivered twice", r.TaskID)
		}
		seen[r.TaskID] = true
	}
	if len(seen) != n {
		t.Errorf("distinct results = %d, want %d", len(seen), n)
	}
	for _, js := range m.AllStats() {
		if !js.Done() {
			t.Errorf("job %s not done: %+v", js.JobID, js)
		}
	}
}

// TestPipelinedTransferExcludesPreviousBatch: with a window two batches
// deep, a batch waits on the worker while the one before it executes.
// Its transfer estimate runs from the later of its dispatch and the
// previous ack, so that wait is not read as wire time: the estimate stays
// near one frame's execution, not two.
func TestPipelinedTransferExcludesPreviousBatch(t *testing.T) {
	const exec = 20 * time.Millisecond
	if got, limit := batchedTransferMs(t, 4, 16, exec), float64(5*exec)/float64(time.Millisecond); got > limit {
		t.Errorf("transfer estimate %.1f ms, want under %.0f ms: the previous batch's execution counted as wire time", got, limit)
	}
}

// TestBatchedTransferExcludesFrameMates: a worker sends a batch's results
// in one frame once the last task is done, so the frame's first result
// waited three tasks' execution on the worker. The transfer ends where the
// frame's tasks started, not at the frame's arrival, and over net.Pipe,
// where the wire costs microseconds, it reads far under one task's 20 ms.
func TestBatchedTransferExcludesFrameMates(t *testing.T) {
	if got := batchedTransferMs(t, 4, 16, 20*time.Millisecond); got >= 5 {
		t.Errorf("transfer estimate %.1f ms, want under 5 ms: frame-mates' execution counted as wire time", got)
	}
}

// batchedTransferMs runs n tasks of exec each through one worker over
// net.Pipe in batches of batch and returns the worker's transfer EWMA.
func batchedTransferMs(t *testing.T, batch, n int, exec time.Duration) float64 {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{ResultBuffer: n, BatchSize: batch})
	defer m.Shutdown()
	for i := 0; i < n; i++ {
		if err := m.Submit(Task{ID: fmt.Sprintf("t%02d", i), JobID: "j"}); err != nil {
			t.Fatal(err)
		}
	}
	mconn, wconn := pipePair()
	go func() { _ = m.HandleWorker(ctx, mconn) }()
	slow := func(_ context.Context, p []byte) ([]byte, error) {
		time.Sleep(exec)
		return p, nil
	}
	go func() { _ = (&Worker{ID: "w", Exec: slow}).Run(ctx, wconn) }()
	collect(t, m, n)
	h, _ := findWorker(m.ClusterHealth(), "w")
	return h.EWMATransferMs
}

// TestOutOfOrderResultSevers: results come back in dispatch order
// (DESIGN's wire table). A result for any task but the window's head is a
// protocol violation: the master drops the connection and requeues the
// task rather than complete it with another task's answer.
func TestOutOfOrderResultSevers(t *testing.T) {
	m := NewMaster(MasterConfig{ResultBuffer: 4, RequeueBackoff: BackoffConfig{Base: -1}})
	defer m.Shutdown()
	mconn, wconn := pipePair()
	lost := make(chan error, 1)
	go func() { lost <- m.HandleWorker(context.Background(), mconn) }()
	c := newCodec(wconn)
	defer c.close()
	if err := c.send(message{Type: msgHello, WorkerID: "liar"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(Task{ID: "t", JobID: "j"}); err != nil {
		t.Fatal(err)
	}
	if msg, err := c.recv(); err != nil || msg.Type != msgTaskBatch {
		t.Fatalf("worker got %v, %v; want the task", msg.Type, err)
	}
	if err := c.send(message{Type: msgResultBatch, Results: []Result{{TaskID: "other", JobID: "j"}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-lost:
		if err == nil || !strings.Contains(err.Error(), `answered task t with result for "other"`) {
			t.Fatalf("handler returned %v, want the out-of-order answer refused", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the handler kept the connection after an out-of-order answer")
	}
	select {
	case r := <-m.Results():
		t.Fatalf("out-of-order answer delivered: %+v", r)
	default:
	}
	if q := m.QueueLen(); q != 1 {
		t.Errorf("queue length %d after the refused answer, want the task requeued", q)
	}
}

// TestResultsFlushEverySixteen: a worker streams a long batch's results
// back in frames of resultFlushEvery, so the master's acks, and the
// TaskTimeout progress deadline each ack restarts, keep moving while the
// rest of the batch runs.
func TestResultsFlushEverySixteen(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mconn, wconn := pipePair()
	go func() { _ = (&Worker{ID: "w", Exec: echoExec}).Run(ctx, wconn) }()
	c := newCodec(mconn)
	defer c.close()
	if _, err := c.recv(); err != nil {
		t.Fatal(err)
	}
	tasks := make([]Task, 2*resultFlushEvery+8)
	for i := range tasks {
		tasks[i] = Task{ID: fmt.Sprintf("t%02d", i), JobID: "j"}
	}
	if err := c.send(message{Type: msgTaskBatch, Tasks: tasks}); err != nil {
		t.Fatal(err)
	}
	var frames []int
	for n := 0; n < len(tasks); {
		m, err := c.recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == msgResultBatch {
			frames = append(frames, len(m.Results))
			n += len(m.Results)
		}
	}
	if fmt.Sprint(frames) != fmt.Sprint([]int{resultFlushEvery, resultFlushEvery, 8}) {
		t.Fatalf("result frames of %v tasks, want %d, %d, 8", frames, resultFlushEvery, resultFlushEvery)
	}
}

// TestBatchExecutionOrderPreserved: a single job is FIFO, and batching
// must not reorder it — one worker executes (and the master completes)
// tasks in submission order.
func TestBatchExecutionOrderPreserved(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{Seed: 1, ResultBuffer: 128, BatchSize: 4})

	var mu sync.Mutex
	var execOrder []string
	p := NewPool(m, func(_ context.Context, payload []byte) ([]byte, error) {
		mu.Lock()
		execOrder = append(execOrder, string(payload))
		mu.Unlock()
		return payload, nil
	})
	defer p.Close()

	const n = 60
	for i := 0; i < n; i++ {
		if err := m.Submit(Task{ID: fmt.Sprintf("t%03d", i), JobID: "j", Payload: []byte(fmt.Sprintf("t%03d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	p.Resize(ctx, 1)

	results := collect(t, m, n)
	for i, r := range results {
		if want := fmt.Sprintf("t%03d", i); r.TaskID != want {
			t.Fatalf("result %d = %s, want %s (batching reordered a FIFO job)", i, r.TaskID, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, id := range execOrder {
		if want := fmt.Sprintf("t%03d", i); id != want {
			t.Fatalf("execution %d = %s, want %s", i, id, want)
		}
	}
}

// TestPartialBatchFlush: a batch smaller than BatchSize must not wait
// for the frame to fill — three tasks against a batch size of 64
// complete promptly.
func TestPartialBatchFlush(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{ResultBuffer: 8, BatchSize: 64})
	p := NewPool(m, echoExec)
	defer p.Close()
	p.Resize(ctx, 1)

	for i := 0; i < 3; i++ {
		if err := m.Submit(Task{ID: fmt.Sprintf("t%d", i), JobID: "j", Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	collect(t, m, 3)
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("partial batch took %v — dispatcher waited for a full frame", d)
	}
}

// fakeBatchWorker connects a raw codec to the master and says hello, and
// returns the codec plus a join func that closes the connection and
// waits for the handler to exit.
func fakeBatchWorker(t *testing.T, ctx context.Context, m *Master, id string) (*codec, func()) {
	t.Helper()
	server, client := net.Pipe()
	handlerDone := make(chan struct{})
	go func() {
		_ = m.HandleWorker(ctx, server)
		close(handlerDone)
	}()
	c := newCodec(client)
	if err := c.send(message{Type: msgHello, WorkerID: id}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return c, func() {
		_ = client.Close()
		<-handlerDone
	}
}

// TestLockstepIsWindowOfOne: with BatchSize 0 or 1 every frame a worker
// receives is a one-task task-batch, and the master never dispatches a
// second task before the first is acked, however deep the queue.
func TestLockstepIsWindowOfOne(t *testing.T) {
	for _, batch := range []int{0, 1} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			m := NewMaster(MasterConfig{ResultBuffer: 16, BatchSize: batch})
			const n = 5
			for i := 0; i < n; i++ {
				if err := m.Submit(Task{ID: fmt.Sprintf("t%d", i), JobID: "j", Payload: []byte("p")}); err != nil {
					t.Fatal(err)
				}
			}
			c, join := fakeBatchWorker(t, ctx, m, "w-lockstep")
			defer join()

			for i := 0; i < n; i++ {
				msg, err := c.recv()
				if err != nil {
					t.Fatalf("recv frame %d: %v", i, err)
				}
				if msg.Type != msgTaskBatch || len(msg.Tasks) != 1 {
					t.Fatalf("frame %d = %s with %d tasks, want a one-task %s", i, msg.Type, len(msg.Tasks), msgTaskBatch)
				}
				// Hold the ack a moment: a master dispatching past a window
				// of one would assign the next task meanwhile.
				time.Sleep(10 * time.Millisecond)
				if h, _ := findWorker(m.ClusterHealth(), "w-lockstep"); h.InflightCount != 1 {
					t.Fatalf("frame %d: %d tasks in flight before its ack, want 1", i, h.InflightCount)
				}
				task := msg.Tasks[0]
				err = c.send(message{Type: msgResultBatch, WorkerID: "w-lockstep", Results: []Result{{
					TaskID: task.ID, JobID: task.JobID, WorkerID: "w-lockstep", Output: task.Payload,
				}}})
				if err != nil {
					t.Fatalf("ack frame %d: %v", i, err)
				}
			}
			for i, r := range collect(t, m, n) {
				if want := fmt.Sprintf("t%d", i); r.TaskID != want {
					t.Errorf("result %d = %s, want %s", i, r.TaskID, want)
				}
			}
		})
	}
}

// TestMidBatchResetRequeuesUnacked: a worker that dies with a batch
// partly acked loses nothing — the acked task completes once, every
// un-acked task is requeued and finishes on the next worker, and no
// task is delivered twice.
func TestMidBatchResetRequeuesUnacked(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{
		ResultBuffer: 32, BatchSize: 4, MaxRetries: 5,
		RequeueBackoff: BackoffConfig{Base: time.Millisecond, Max: 10 * time.Millisecond},
	})
	const n = 8
	for i := 0; i < n; i++ {
		if err := m.Submit(Task{ID: fmt.Sprintf("t%d", i), JobID: "j", Payload: []byte(fmt.Sprintf("t%d", i))}); err != nil {
			t.Fatal(err)
		}
	}

	// The flaky worker drains the whole pipelined window (the master's
	// sends block on the unbuffered pipe otherwise), acks only the head
	// task, and drops the connection.
	c, join := fakeBatchWorker(t, ctx, m, "w-flaky")
	var received []Task
	for len(received) < n {
		msg, err := c.recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if msg.Type == msgTaskBatch {
			received = append(received, msg.Tasks...)
		}
	}
	head := received[0]
	err := c.send(message{Type: msgResultBatch, WorkerID: "w-flaky", Results: []Result{{
		TaskID: head.ID, JobID: head.JobID, WorkerID: "w-flaky", Output: head.Payload,
	}}})
	if err != nil {
		t.Fatalf("ack head: %v", err)
	}
	// Wait for the head result so the severed connection cannot race the
	// ack out of the reader.
	first := collect(t, m, 1)[0]
	if first.TaskID != head.ID || first.Err != "" {
		t.Fatalf("head result = %+v, want clean %s", first, head.ID)
	}
	join() // reset: close with the rest of the batch un-acked

	// A healthy pool worker finishes everything the reset put back.
	p := NewPool(m, echoExec)
	defer p.Close()
	p.Resize(ctx, 1)

	seen := map[string]bool{head.ID: true}
	for _, r := range collect(t, m, n-1) {
		if r.Err != "" {
			t.Errorf("task %s failed after requeue: %s", r.TaskID, r.Err)
		}
		if seen[r.TaskID] {
			t.Errorf("task %s delivered twice across the reset", r.TaskID)
		}
		seen[r.TaskID] = true
	}
	if len(seen) != n {
		t.Errorf("distinct results = %d, want %d", len(seen), n)
	}
}

// TestBatchedPoolShrinkDrains: releasing a worker mid-stream (the GCK
// shrinking the pool) drains its outstanding batches gracefully — no
// task lost, no double delivery.
func TestBatchedPoolShrinkDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{Seed: 3, ResultBuffer: 256, BatchSize: 8})
	p := NewPool(m, func(_ context.Context, payload []byte) ([]byte, error) {
		time.Sleep(200 * time.Microsecond)
		return payload, nil
	})
	defer p.Close()

	const n = 120
	for i := 0; i < n; i++ {
		if err := m.Submit(Task{ID: fmt.Sprintf("t%03d", i), JobID: "j", Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	p.Resize(ctx, 3)
	time.Sleep(10 * time.Millisecond) // let batches get in flight
	p.Resize(ctx, 1)

	seen := make(map[string]bool)
	for _, r := range collect(t, m, n) {
		if r.Err != "" {
			t.Errorf("task %s failed: %s", r.TaskID, r.Err)
		}
		if seen[r.TaskID] {
			t.Errorf("task %s delivered twice across the shrink", r.TaskID)
		}
		seen[r.TaskID] = true
	}
	if len(seen) != n {
		t.Errorf("distinct results = %d, want %d", len(seen), n)
	}
}
