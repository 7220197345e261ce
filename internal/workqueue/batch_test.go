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
