package workqueue

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
)

// scheduler is the priority-aware task pool. Jobs carry priorities; an idle
// worker draws the next task from a job selected with probability
// proportional to its priority (the paper's P_u = T_u / sum T_u semantics,
// generalized to arbitrary positive priorities tuned by the PID loop).
// Within a job, tasks are FIFO.
//
// One mutex guards the whole pool: the job queues, the weighted pick's
// state and the idle-waiter stack (DESIGN.md has the measurement that
// retired the sharded pool).
//
// Dispatch is handoff-based instead of cond.Broadcast-based: each idle
// worker parks on its own one-slot channel (its dispatch queue), and a
// push into an empty pool hands the task directly to a parked worker. A
// waiter parks under the same lock push checks, so a push either sees the
// parked waiter or comes before the waiter's own draw: no wakeup is lost.
type scheduler struct {
	mu sync.Mutex
	// jobs holds one entry per known job (created on first push or
	// setPriority, dropped by forgetJob); entries keep their queue
	// capacity across empty→nonempty transitions so steady-state
	// push/draw cycles allocate nothing. order holds the jobs with
	// pending tasks (stable iteration) by pointer, so the weighted pick
	// never touches the map; mass is their total priority.
	jobs    map[string]*jobQueue
	order   []*jobQueue
	mass    float64
	rng     *rand.Rand
	pending int // queued tasks; handed-off tasks are already dispatched
	closed  bool
	// idle is the LIFO stack of parked waiters. It is non-empty only while
	// pending is zero: a push into an empty pool goes to a parked waiter
	// first, and a waiter parks only when its draw finds nothing.
	idle []*waiter

	// waiters recycles waiter structs so the idle-worker loop stays
	// allocation-free.
	waiters sync.Pool

	// cHandoffs (nil-safe) counts tasks dispatched to a parked waiter
	// without ever entering a queue; gQueue mirrors pending, set under
	// s.mu wherever pending changes.
	cHandoffs *obs.Counter
	gQueue    *obs.Gauge
}

// jobQueue is one job's FIFO plus its scheduling weight. head indexes the
// next task; when the queue drains, the backing array is reset and kept.
type jobQueue struct {
	tasks    []queued
	head     int
	priority float64
}

func (q *jobQueue) pending() int { return len(q.tasks) - q.head }

// queued is a task as the pool holds it: with the attempts it has lost to
// worker failures so far, when it entered the queue (for the queue-wait
// histogram; zero without metrics) and its open queue span (nil without a
// tracer).
type queued struct {
	Task
	attempts int
	at       time.Time
	span     *obs.Span
}

// wake is one message on a waiter's dispatch channel: a handed-off task,
// or (ok false) the close signal.
type wake struct {
	task queued
	ok   bool
}

// waiter is one worker's dispatch endpoint: a reusable parking slot with
// a one-slot channel the push side hands tasks to. A waiter is owned by a
// single goroutine; the channel crosses to pushers only while the waiter
// sits on the idle stack, and every claim sends exactly one message, so
// the channel is always empty when re-parked.
type waiter struct {
	s  *scheduler
	ch chan wake
}

func newScheduler(seed int64) *scheduler {
	s := &scheduler{jobs: make(map[string]*jobQueue), rng: rand.New(rand.NewSource(seed))}
	s.waiters.New = func() any { return &waiter{s: s, ch: make(chan wake, 1)} }
	return s
}

// instrument attaches the scheduler's dispatch counter and queue-depth
// gauge to a registry.
func (s *scheduler) instrument(reg *obs.Registry) {
	if reg != nil {
		s.cHandoffs = reg.Counter("wq_sched_handoffs_total")
		s.gQueue = reg.Gauge("wq_queue_depth")
	}
}

// getWaiter leases a dispatch endpoint (one per worker connection);
// putWaiter recycles it. A waiter must not be shared across goroutines.
func (s *scheduler) getWaiter() *waiter  { return s.waiters.Get().(*waiter) }
func (s *scheduler) putWaiter(w *waiter) { s.waiters.Put(w) }

// put hands t to a parked waiter if there is one — which implies nothing
// is queued, so the handoff cannot jump a job's FIFO or bypass the
// weighted pick — and otherwise queues it at the tail (front: the head)
// of its job's queue; jobs default to priority 1. A closed pool has no
// parked waiter and still queues t, for drain.
func (s *scheduler) put(t queued, front bool) {
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		w := s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
		s.mu.Unlock()
		s.cHandoffs.Inc()
		w.ch <- wake{task: t, ok: true}
		return
	}
	q := s.jobs[t.JobID]
	if q == nil {
		q = &jobQueue{priority: 1}
		s.jobs[t.JobID] = q
	}
	if q.pending() == 0 {
		s.order = append(s.order, q)
		s.mass += q.priority
	}
	switch {
	case !front:
		q.tasks = append(q.tasks, t)
	case q.head > 0:
		q.head--
		q.tasks[q.head] = t
	default:
		q.tasks = slices.Insert(q.tasks, 0, t)
	}
	s.pending++
	s.gQueue.SetInt(s.pending)
	s.mu.Unlock()
}

// setPriority tunes a job's scheduling weight. Non-positive values are
// clamped to a small epsilon so the job can still make progress.
func (s *scheduler) setPriority(jobID string, p float64) {
	const minPriority = 1e-6
	if p < minPriority {
		p = minPriority
	}
	s.mu.Lock()
	q := s.jobs[jobID]
	if q == nil {
		s.jobs[jobID] = &jobQueue{priority: p}
	} else {
		if q.pending() > 0 {
			s.setMassLocked(s.mass + p - q.priority)
		}
		q.priority = p
	}
	s.mu.Unlock()
}

// setMassLocked clamps tiny negative residue from float cancellation so
// the weighted pick never sees a negative weight. Callers hold s.mu.
func (s *scheduler) setMassLocked(m float64) { s.mass = max(m, 0) }

// tryNext returns a queued task without blocking; ok=false when the pool
// is empty or closed.
func (s *scheduler) tryNext() (queued, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return queued{}, false
	}
	return s.takeLocked()
}

// next blocks until a task is available, the context is cancelled, or the
// scheduler closes. The wait path parks on the waiter's own channel —
// no per-call allocation, no broadcast wakeups.
func (w *waiter) next(ctx context.Context) (queued, bool) {
	if t, ok, parked := w.takeOrPark(ctx); !parked {
		return t, ok
	}
	select {
	case m := <-w.ch:
		return m.task, m.ok
	case <-ctx.Done():
		return w.cancel()
	}
}

// takeOrPark draws a queued task or, when none is queued and neither the
// pool is closed nor ctx done, parks the waiter on the idle stack
// (parked true): the next push hands it a task on its channel.
func (w *waiter) takeOrPark(ctx context.Context) (t queued, ok, parked bool) {
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return queued{}, false, false
	}
	if t, ok := s.takeLocked(); ok {
		return t, true, false
	}
	// Cancellation is checked only when the draw would block: a
	// ctx.Err() call takes the context's lock, which the hot
	// task-available path must not touch.
	if ctx.Err() != nil {
		return queued{}, false, false
	}
	s.idle = append(s.idle, w)
	return queued{}, false, true
}

// cancel is next's cancelled-context branch for a parked waiter. Still
// on the idle stack, the waiter just leaves it. Otherwise a pusher (or
// close) claimed it first and exactly one message is in flight: consume
// it so the channel is empty for reuse, and put a handed-off task back at
// the head of its job's queue, ahead of the job's tasks queued since.
func (w *waiter) cancel() (queued, bool) {
	s := w.s
	s.mu.Lock()
	if i := slices.Index(s.idle, w); i >= 0 {
		s.idle = slices.Delete(s.idle, i, i+1)
		s.mu.Unlock()
		return queued{}, false
	}
	s.mu.Unlock()
	if m := <-w.ch; m.ok {
		s.put(m.task, true)
	}
	return queued{}, false
}

// takeLocked pops the next task: a priority-weighted job pick, FIFO within
// the job. Callers hold s.mu.
func (s *scheduler) takeLocked() (queued, bool) {
	if s.pending == 0 {
		return queued{}, false
	}
	q, idx := s.pickJobLocked()
	t := q.tasks[q.head]
	q.tasks[q.head] = queued{} // release references for GC
	q.head++
	if q.pending() == 0 {
		// Keep the entry (and its queue capacity) but drop it from the
		// weighted pick until the next push.
		q.tasks = q.tasks[:0]
		q.head = 0
		s.order = slices.Delete(s.order, idx, idx+1)
		s.setMassLocked(s.mass - q.priority)
	} else if q.head >= 32 && q.head*2 >= len(q.tasks) {
		// Compact once the consumed prefix dominates, so a queue that
		// never fully drains does not grow its backing array without
		// bound (appends would otherwise realloc — and clear — ever
		// larger arrays). Amortized O(1) per pop.
		n := copy(q.tasks, q.tasks[q.head:])
		clear(q.tasks[n:])
		q.tasks = q.tasks[:n]
		q.head = 0
	}
	s.pending--
	s.gQueue.SetInt(s.pending)
	return t, true
}

// pickJobLocked selects a job with pending tasks, weighted by priority.
// s.mass already holds the total weight of s.order, so the pick is a
// single pass; float residue in the maintained total at worst biases the
// last job by a few ulps (the fallthrough return).
func (s *scheduler) pickJobLocked() (*jobQueue, int) {
	if len(s.order) == 1 {
		return s.order[0], 0
	}
	r := s.rng.Float64() * s.mass
	acc := 0.0
	for i, q := range s.order {
		acc += q.priority
		if r < acc {
			return q, i
		}
	}
	return s.order[len(s.order)-1], len(s.order) - 1
}

// forgetJob drops a drained job's entry so long-running masters do not
// accumulate state for every job ever seen. A job that still has queued
// tasks keeps its entry; a task pushed later (e.g. a requeue) recreates
// it at the default priority.
func (s *scheduler) forgetJob(jobID string) {
	s.mu.Lock()
	if q := s.jobs[jobID]; q != nil && q.pending() == 0 {
		delete(s.jobs, jobID)
	}
	s.mu.Unlock()
}

// len reports the number of queued tasks.
func (s *scheduler) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// drain empties the pool and returns what it held.
func (s *scheduler) drain() []queued {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]queued, 0, s.pending)
	for t, ok := s.takeLocked(); ok; t, ok = s.takeLocked() {
		out = append(out, t)
	}
	return out
}

// close wakes all parked waiters and stops every draw; tasks put later
// are only queued, for drain.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	idle := s.idle
	s.idle = nil
	s.mu.Unlock()
	for _, w := range idle {
		w.ch <- wake{}
	}
}
