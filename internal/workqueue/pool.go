package workqueue

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// Pool is an elastic in-process worker pool attached to a master via
// net.Pipe connections speaking the full protocol — the Worker Pool of the
// paper's architecture (Fig. 2), whose size is the Global Control Knob.
type Pool struct {
	master *Master
	exec   Executor
	// Heartbeat is the HeartbeatEvery interval given to workers spawned
	// by Resize (zero = no heartbeats). Set it before growing the pool;
	// in-process workers are as capable of stalling (scheduler
	// starvation, blocked executors) as remote ones, so the same
	// liveness machinery applies.
	Heartbeat time.Duration
	// Logger is handed to workers spawned by Resize, so in-process
	// workers log task failures with the same structure as remote ones.
	Logger *obs.Logger
	// ExecTimeout is handed to spawned workers as their per-task
	// execution budget (see Worker.ExecTimeout).
	ExecTimeout time.Duration
	// WrapConn, when set, wraps each spawned worker's pipe pair before
	// the protocol starts — the chaos layer's hook for injecting
	// transport faults into in-process clusters. It receives the master
	// and worker ends and returns the (possibly wrapped) pair.
	WrapConn func(master, worker net.Conn) (net.Conn, net.Conn)
	// Respawn keeps the pool elastic under worker death: a worker whose
	// connection drops without a graceful release is restarted at once
	// under a fresh incarnation ID, mirroring how the paper's scavenged
	// HTCondor pool backfills evicted nodes. Without it a crashed worker
	// leaves the pool one slot short forever.
	Respawn bool
	// WorkerRecorder, when set, supplies each spawned worker's private
	// flight recorder (see Worker.FlightRec): in-process workers then
	// keep their frame-leg probe events in per-host rings, so the master's
	// gather step gets true per-host provenance without process
	// isolation. Called once per incarnation with the worker's ID.
	WorkerRecorder func(id string) *flightrec.Recorder

	mu      sync.Mutex
	next    int
	workers map[string]context.CancelFunc
	// retired holds cancel funcs of gracefully released workers; they
	// are invoked at Close purely to free their contexts.
	retired []context.CancelFunc
	closed  bool
	wg      sync.WaitGroup
}

// NewPool creates an empty pool feeding the master with workers that run
// exec.
func NewPool(master *Master, exec Executor) *Pool {
	return &Pool{
		master:  master,
		exec:    exec,
		workers: make(map[string]context.CancelFunc),
	}
}

// Size returns the current number of workers.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// Resize grows or shrinks the pool to n workers (the GCK actuation).
// Shrinking is graceful: surplus workers are released through the master,
// finish their current task and then exit — in-flight work is never
// preempted. (Hard preemption still happens on Close or context
// cancellation, where the master requeues the lost task.)
func (p *Pool) Resize(ctx context.Context, n int) {
	if n < 0 {
		n = 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for ; len(p.workers) < n; p.next++ {
		p.spawnSlotLocked(ctx, p.next, 0)
	}
	for id := range p.workers {
		if len(p.workers) <= n {
			break
		}
		p.master.Release(id)
		p.retired = append(p.retired, p.workers[id])
		delete(p.workers, id)
	}
}

// spawnSlotLocked starts the given incarnation of one worker slot: a
// worker and its master handler bridged by an in-process pipe. The first
// incarnation keeps the bare slot name; respawns append -rK so a
// restarted worker never races its dying predecessor for the same ID in
// the master's registry.
func (p *Pool) spawnSlotLocked(ctx context.Context, slot, incarnation int) {
	id := fmt.Sprintf("pool-worker-%d", slot)
	if incarnation > 0 {
		id = fmt.Sprintf("pool-worker-%d-r%d", slot, incarnation)
	}
	wctx, cancel := context.WithCancel(ctx)
	p.workers[id] = cancel

	mconn, wconn := net.Pipe()
	if p.WrapConn != nil {
		mconn, wconn = p.WrapConn(mconn, wconn)
	}
	// The pool waits for its workers; their handlers are the master's,
	// counted here so a Shutdown right after Close waits for them. Close
	// must not: a handler may be blocked delivering a result nobody reads,
	// which only Shutdown releases.
	p.wg.Add(1)
	p.master.wg.Add(1)
	go func() {
		defer p.master.wg.Done()
		_ = p.master.HandleWorker(wctx, mconn)
	}()
	go func() {
		defer p.wg.Done()
		w := &Worker{
			ID: id, Exec: p.exec,
			HeartbeatEvery: p.Heartbeat, Logger: p.Logger,
			ExecTimeout: p.ExecTimeout,
		}
		if p.WorkerRecorder != nil {
			w.FlightRec = p.WorkerRecorder(id)
		}
		err := w.Run(wctx, wconn)
		if err != nil && p.Respawn {
			p.respawn(ctx, id, slot, incarnation)
		}
	}()
}

// respawn backfills a worker slot whose incarnation died unexpectedly
// (connection drop, chaos crash, master eviction). It runs on the dying
// worker's goroutine, so the pool's WaitGroup is still held across the
// wg.Add of the replacement.
func (p *Pool) respawn(ctx context.Context, id string, slot, incarnation int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cancel, ok := p.workers[id]
	if !ok || p.closed || ctx.Err() != nil {
		// Released, resized away, or the pool is closing: stay down.
		return
	}
	cancel() // free the dead incarnation's context
	delete(p.workers, id)
	p.spawnSlotLocked(ctx, slot, incarnation+1)
}

// Close cancels all workers and waits for them to exit. Their master-side
// handlers unwind on their own; Master.Shutdown waits for those.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	for id, cancel := range p.workers {
		cancel()
		delete(p.workers, id)
	}
	for _, cancel := range p.retired {
		cancel()
	}
	p.retired = nil
	p.mu.Unlock()
	p.wg.Wait()
}
