package workqueue

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
	"github.com/social-sensing/sstd/internal/obs/tsdb"
)

// JobStats tracks per-job progress for the feedback control loop.
type JobStats struct {
	JobID       string
	Submitted   int
	Completed   int
	Failed      int
	FirstSubmit time.Time
}

// Done reports whether every submitted task has finished.
func (js JobStats) Done() bool { return js.Submitted > 0 && js.Completed+js.Failed == js.Submitted }

// MasterConfig tunes a Master.
type MasterConfig struct {
	// Seed drives the weighted-random job picker (deterministic tests).
	Seed int64
	// ResultBuffer sizes the Results channel. Default 1.
	ResultBuffer int
	// MaxRetries bounds how many times a task lost to worker failure is
	// requeued before it is quarantined and reported as failed. Zero
	// means retry indefinitely (suits scavenged pools where eviction is
	// routine; cap it when a poisonous task could crash workers
	// repeatedly — the quarantine then keeps the task inspectable via
	// Quarantined instead of letting it crash-loop the cluster).
	MaxRetries int
	// RequeueBackoff paces the re-scheduling of tasks lost to worker
	// failure. The zero value applies the default schedule (5ms base,
	// doubling to a 2s cap, 20% jitter); a negative Base restores the
	// old immediate requeue. Without backoff a crash-looping worker
	// spins a hot assign/lose/requeue cycle at CPU speed.
	RequeueBackoff BackoffConfig
	// TaskTimeout bounds how long the master waits for an assigned
	// task's result before it severs the worker connection and requeues
	// the task (zero = wait forever). It also rides the wire as the
	// worker's execution budget (at 80%, so a cooperative worker
	// self-reports a timeout result before the master gives up on it).
	// Required for recovery from silently dropped frames: a lost task
	// or result message otherwise stalls the handler with the worker
	// still heartbeating happily. With batching it is a progress
	// deadline: the clock restarts on every ack, so a batch only times
	// out when the worker stops producing results, not because the batch
	// as a whole outlasted one task's budget.
	TaskTimeout time.Duration
	// BatchSize enables task batching: the master coalesces up to this
	// many queued tasks into one task-batch frame per worker and keeps a
	// pipelined window of two batches un-acked, so the worker's next
	// batch is already in its socket buffer while the current one
	// executes. <= 1 is lock-step: a window of one single-task frame.
	BatchSize int
	// Metrics and Tracer enable telemetry (both may be nil: the master
	// then keeps no per-task timing state and every hook no-ops). Logger
	// receives structured master events (worker attach/loss, evictions,
	// task retries) tagged with worker_id/task_id/trace_id; nil disables
	// logging.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	Logger  *obs.Logger
	// SuspectAfter and DeadAfter enable heartbeat-based liveness: a
	// worker silent for SuspectAfter is marked suspect, silent for
	// DeadAfter it is marked dead — its connection is severed and any
	// in-flight task requeued. Zero disables the monitor (a hung worker
	// is then only detected when its connection errors). Only enable
	// liveness when workers heartbeat (Worker.HeartbeatEvery > 0) at an
	// interval comfortably shorter than SuspectAfter, or idle workers
	// will be evicted for silence.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// StragglerFactor flags workers whose EWMA exec time exceeds this
	// multiple of the cluster median (<= 0 uses the default of 2).
	StragglerFactor float64
	// Admission enables capacity-model admission control: AdmitJob then
	// predicts each offered job's completion against its deadline and
	// refuses (or sheds) jobs the pool could not finish in time. Nil
	// leaves the gate open.
	Admission *AdmissionConfig
	// Telemetry, when set, retains the workers' shipped metrics snapshots
	// as labeled time series (the /query endpoint's backing store). Each
	// worker's registry, as its telemetry ships rebuild it, is ingested
	// under a host=<worker-id> label on arrival.
	Telemetry *tsdb.Store
	// FlightRec overrides the recorder whose dumps gather every attached
	// worker's rings, one lane per host (default: the process-global
	// flightrec.Active(); with neither, worker dumps are ignored).
	FlightRec *flightrec.Recorder
}

// Master owns the task pool and serves workers. It mirrors the Work Queue
// master of the paper: the Dynamic Task Manager submits tasks, workers call
// back and pull work, and results stream out of Results().
type Master struct {
	sched      *scheduler
	results    chan Result
	maxRetries int
	// cluster is the per-worker health registry; suspectAfter/deadAfter
	// parameterize its liveness monitor (zero = disabled).
	cluster      *cluster
	suspectAfter time.Duration
	deadAfter    time.Duration
	taskTimeout  time.Duration
	batchSize    int
	backoff      BackoffConfig
	// admission is the capacity-model job gate; nil = admit everything.
	admission *admissionGate

	// Telemetry handles; all nil when telemetry is off.
	tracer       *obs.Tracer
	logger       *obs.Logger
	cSubmitted   *obs.Counter
	cCompleted   *obs.Counter
	cFailed      *obs.Counter
	cRetries     *obs.Counter
	cTimeouts    *obs.Counter
	cQuarantined *obs.Counter
	hExec        *obs.Histogram
	hWait        *obs.Histogram

	// fr probes the assign/requeue/ack control loop into the flight
	// recorder; handler goroutines share it (the ring cursor is atomic).
	fr *flightrec.Ring

	// telemetry is the retained time-series store fed by worker ships;
	// nil when the telemetry plane is off.
	telemetry *tsdb.Store
	// rec is the flight recorder whose trip hook gathers the workers'
	// rings (clusterdump.go); dumpPending is the gather round in flight.
	rec         *flightrec.Recorder
	dumpSeq     atomic.Int64
	dumpPending atomic.Pointer[dumpCollector]

	// mu guards the per-job and per-task bookkeeping below. requeue,
	// firePending and Shutdown take the scheduler's lock under it, so a
	// task leaving its record is queued before Shutdown's drain looks; no
	// path takes mu under the scheduler's lock. closed is atomic: the hot
	// paths read it without any lock.
	mu    sync.Mutex
	rng   *rand.Rand // jitter source for requeue backoff
	stats map[string]*JobStats
	// tasks holds one record per task out of the queue: from its dispatch
	// to its result (complete, which also reports a quarantined task) or
	// its requeue, and while it waits out a requeue backoff. Shutdown
	// reports what it still holds. With the queue it is the backlog
	// admission counts. quarantine holds tasks that exhausted their retry
	// budget (capped at quarantineRetention).
	tasks      map[string]taskRec
	quarantine map[string]*QuarantinedTask
	closed     atomic.Bool
	// stopping is closed when Shutdown begins: it releases handlers blocked
	// delivering into a full results channel nobody reads any more.
	stopping chan struct{}
	stopOnce sync.Once

	wg sync.WaitGroup
}

// taskRec is the master's state of one task out of the queue. Its entry's
// span is the exec span while the task is in flight, and the queue span a
// requeue opened while it waits out its backoff timer.
type taskRec struct {
	q       queued
	backoff *time.Timer
}

// NewMaster creates a master.
func NewMaster(cfg MasterConfig) *Master {
	buf := cfg.ResultBuffer
	if buf <= 0 {
		buf = 1
	}
	// Every dump of the master's recorder (deadline-miss burst, SLO burn,
	// quarantine, straggler, manual, a worker's trip) gathers the workers'
	// rings into its file.
	rec := cfg.FlightRec
	if rec == nil {
		rec = flightrec.Active()
	}
	m := &Master{
		sched:        newScheduler(cfg.Seed),
		results:      make(chan Result, buf),
		stopping:     make(chan struct{}),
		maxRetries:   cfg.MaxRetries,
		cluster:      newCluster(cfg.Metrics, cfg.StragglerFactor, rec),
		suspectAfter: cfg.SuspectAfter,
		deadAfter:    cfg.DeadAfter,
		taskTimeout:  cfg.TaskTimeout,
		batchSize:    cfg.BatchSize,
		backoff:      cfg.RequeueBackoff.withDefaults(5*time.Millisecond, 2*time.Second),
		fr:           flightrec.Shared("master"),
		rng:          rand.New(rand.NewSource(cfg.Seed + 1)),
		stats:        make(map[string]*JobStats),
		tasks:        make(map[string]taskRec),
		quarantine:   make(map[string]*QuarantinedTask),
	}
	if cfg.RequeueBackoff.Jitter == 0 {
		m.backoff.Jitter = 0.2
	}
	if reg := cfg.Metrics; reg != nil {
		m.cSubmitted = reg.Counter("wq_tasks_submitted_total")
		m.cCompleted = reg.Counter("wq_tasks_completed_total")
		m.cFailed = reg.Counter("wq_tasks_failed_total")
		m.cRetries = reg.Counter("wq_task_retries_total")
		m.cTimeouts = reg.Counter("wq_task_timeouts_total")
		m.cQuarantined = reg.Counter("wq_tasks_quarantined_total")
		m.hExec = reg.Histogram("wq_task_exec_ms", nil)
		m.hWait = reg.Histogram("wq_task_queue_wait_ms", nil)
	}
	m.tracer = cfg.Tracer
	m.logger = cfg.Logger
	if cfg.Admission != nil {
		m.admission = newAdmissionGate(*cfg.Admission, cfg.Metrics, cfg.Logger)
	}
	m.sched.instrument(cfg.Metrics)
	m.telemetry = cfg.Telemetry
	m.rec = rec
	m.rec.SetOnTrip(m.gather)
	return m
}

// Submit adds a task to the pool.
func (m *Master) Submit(t Task) error {
	if m.closed.Load() {
		return errors.New("workqueue: master is shut down")
	}
	m.mu.Lock()
	js, ok := m.stats[t.JobID]
	if !ok {
		js = &JobStats{JobID: t.JobID, FirstSubmit: time.Now()}
		m.stats[t.JobID] = js
	}
	js.Submitted++
	m.mu.Unlock()
	m.cSubmitted.Inc()
	m.sched.put(m.queue(t, 0), false)
	return nil
}

// queue builds t's pool entry, opening its queue-wait measurement and
// queue span.
func (m *Master) queue(t Task, attempts int) queued {
	q := queued{Task: t, attempts: attempts}
	if m.hWait != nil {
		q.at = time.Now()
	}
	if m.tracer != nil {
		q.span = m.tracer.NewSpan("queue "+t.ID, t.Span)
		q.span.SetAttr("job", t.JobID)
		q.span.SetTrace(t.Trace.traceID())
	}
	return q
}

// SetJobPriority tunes the Local Control Knob for one job.
func (m *Master) SetJobPriority(jobID string, p float64) {
	m.sched.setPriority(jobID, p)
}

// Results is the stream of task results. It is closed by Shutdown.
func (m *Master) Results() <-chan Result { return m.results }

// AllStats snapshots every job.
func (m *Master) AllStats() []JobStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []JobStats
	for _, js := range m.stats {
		out = append(out, *js)
	}
	return out
}

// ForgetJob drops what the master keeps per job, its stats row and its
// scheduler entry with the job's priority. Both stay until the submitter,
// which alone knows when a job is over, calls it.
func (m *Master) ForgetJob(jobID string) {
	m.mu.Lock()
	delete(m.stats, jobID)
	m.mu.Unlock()
	m.sched.forgetJob(jobID)
}

// QueueLen reports tasks waiting for a worker.
func (m *Master) QueueLen() int { return m.sched.len() }

// Release asks a worker to exit gracefully: it finishes its current task
// (if any), then receives a shutdown instead of new work. Used by the
// elastic pool to shrink without preempting in-flight tasks. Unknown
// worker IDs are ignored.
func (m *Master) Release(workerID string) {
	if wake := m.cluster.release(workerID); wake != nil {
		wake()
	}
}

// WorkerCount reports currently attached workers.
func (m *Master) WorkerCount() int {
	return m.cluster.count()
}

// Serve accepts worker connections from l until ctx is cancelled or the
// listener fails. Each connection is handled on its own goroutine.
func (m *Master) Serve(ctx context.Context, l net.Listener) error {
	stop := context.AfterFunc(ctx, func() { _ = l.Close() })
	defer stop()
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("workqueue: accept: %w", err)
		}
		// Count the handler before Serve can return, so a Shutdown that
		// follows the accept loop's exit waits for it.
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			_ = m.HandleWorker(ctx, conn)
		}()
	}
}

// HandleWorker runs the master side of the protocol for one worker
// connection until the worker disconnects, is evicted by the liveness
// monitor, or ctx is cancelled. In-process workers attach through
// net.Pipe with the identical protocol.
//
// Three goroutines cooperate per connection: a reader that drains every
// incoming message (so heartbeats are seen even while the
// worker executes or idles), an optional liveness monitor that severs
// the connection when the worker goes silent past DeadAfter, and this
// handler loop, which assigns tasks and waits for their results.
func (m *Master) HandleWorker(ctx context.Context, conn net.Conn) error {
	m.wg.Add(1)
	defer m.wg.Done()
	c := newCodecWith(conn, flightrec.Active())
	defer func() { _ = c.close() }()

	hello, err := c.recv()
	if err != nil {
		return obs.Wrap(fmt.Errorf("workqueue: worker hello: %w", err))
	}
	if hello.Type != msgHello || hello.WorkerID == "" {
		return fmt.Errorf("workqueue: bad hello %+v", hello)
	}
	workerID := hello.WorkerID
	lg := m.logger.With(obs.WorkerID(workerID))
	wctx, wake := context.WithCancel(ctx)
	defer wake()
	if err := m.cluster.attach(workerID, wake, conn, c); err != nil {
		return err
	}
	lg.Info("worker attached")
	defer func() {
		m.cluster.detach(workerID, "disconnected")
		lg.Info("worker detached")
	}()

	// Lock-step (BatchSize <= 1) is a window of one single-task frame.
	// With batching the un-acked window is two batches deep, so the next
	// batch is already in the worker's socket buffer while the current
	// one executes — the pipelining that hides the dispatch round trip.
	batchMax := max(m.batchSize, 1)
	maxInflight := batchMax
	if batchMax > 1 {
		maxInflight = 2 * batchMax
	}

	// This connection's dispatch endpoint: while idle the handler parks on
	// the waiter's private one-slot channel and a push hands it the task
	// directly — no broadcast storm.
	w := m.sched.getWaiter()
	defer m.sched.putWaiter(w)

	// Reader: demultiplex the worker's messages. Results go to the handler
	// loop; heartbeats, telemetry and flight dumps feed the health
	// registry, the time-series store and the recorder directly. A receive
	// error (the liveness monitor or the handler closing the connection
	// included) lands in readErr and wakes an idle handler. handlerDone
	// closes only when the handler returns, releasing a reader blocked on
	// a stray result nobody will consume.
	//
	// results holds the whole pipelined window: a conforming worker never
	// has more un-acked result frames than un-acked tasks, so the reader
	// forwards without blocking while the handler sends the next batch (on
	// net.Pipe a blocked reader would deadlock against a blocked send).
	results := make(chan []Result, maxInflight+1)
	readErr := make(chan error, 1)
	handlerDone := make(chan struct{})
	defer close(handlerDone)
	go func() {
		for {
			msg, err := c.recv()
			if err != nil {
				readErr <- err
				wake()
				return
			}
			// Every incoming message carries the worker's clock stamps and
			// possibly stage spans or flight-dump events stamped on the
			// worker's clock. Fold the stamps into the skew estimate, then
			// shift the spans and events onto the master clock with the
			// freshest offset: the one place a worker timestamp is moved.
			var d1 int64
			if msg.SentUnixNano != 0 {
				d1 = time.Now().UnixNano() - msg.SentUnixNano
			}
			m.cluster.observeClock(workerID, d1, msg.TaskDelayNs)
			if len(msg.Spans) > 0 || msg.Dump != nil {
				adj := m.cluster.clockAdjustNs(workerID)
				for i := range msg.Spans {
					msg.Spans[i].StartUnixNano += adj
				}
				if msg.Dump != nil {
					for i := range msg.Dump.Events {
						msg.Dump.Events[i].T0 += adj
						msg.Dump.Events[i].T1 += adj
					}
				}
			}
			m.ingestRemoteSpans(workerID, msg.Spans)
			if msg.Telemetry != nil {
				m.cluster.recordShip(workerID, msg.Telemetry)
				m.telemetry.Ingest(workerID, *msg.Telemetry, time.Now())
			}
			switch msg.Type {
			case msgHeartbeat:
				m.cluster.heartbeat(workerID)
			case msgFlightDump:
				// Either the answer to our FreezeRings broadcast or a
				// worker-initiated trip.
				m.handleFlightDump(workerID, msg.Dump)
			case msgResultBatch:
				if len(msg.Results) == 0 {
					readErr <- fmt.Errorf("workqueue: result-batch message without results")
					wake()
					return
				}
				select {
				case results <- msg.Results:
				case <-handlerDone:
					return
				}
			default:
				// An old or foreign worker speaking another dialect is
				// rejected, not fatal: drop the connection, keep serving.
				readErr <- fmt.Errorf("workqueue: unexpected message %q", msg.Type)
				wake()
				return
			}
		}
	}()

	// Liveness monitor: evict the worker when it goes silent. Closing
	// the connection errors the reader, which requeues any in-flight
	// task through the normal worker-loss path below.
	if m.deadAfter > 0 || m.suspectAfter > 0 {
		monitorStop := make(chan struct{})
		defer close(monitorStop)
		go func() {
			t := time.NewTicker(livenessTick(m.suspectAfter, m.deadAfter))
			defer t.Stop()
			for {
				select {
				case <-monitorStop:
					return
				case <-t.C:
					if m.cluster.checkLiveness(workerID, m.suspectAfter, m.deadAfter) == WorkerDead {
						lg.Warn("worker evicted: heartbeat timeout")
						_ = conn.Close()
						return
					}
				}
			}
		}()
	}

	// sendShutdown asks the worker to exit, then waits (bounded) for the
	// reader to hit EOF: the worker flushes any still-buffered stage spans
	// on a final heartbeat before closing, and returning earlier would
	// sever the connection under that flush.
	sendShutdown := func() {
		_ = c.send(message{Type: msgShutdown})
		select {
		case <-readErr:
		case <-time.After(time.Second):
		}
	}
	// outstanding is the dispatch-ordered window of un-acked tasks. The
	// worker executes frames in order and each frame's tasks in order, so
	// the head of the window is always the next expected result; anything
	// else is a protocol violation that severs the connection. The health
	// registry sees its head and length after every change; the handler
	// returns after every requeue, and detach clears them.
	var outstanding []sentTask
	requeueOutstanding := func() {
		for _, st := range outstanding {
			m.requeue(st.task)
		}
		outstanding = nil
	}
	// lastAck, when the last result frame arrived, is about when the
	// worker ended the task before the next frame's: time queued behind
	// that frame is not wire time.
	var lastAck time.Time

	// dispatch ships one batch as one task-batch frame. The frame's send
	// stamp feeds the worker's leg of the clock-skew estimate, and each
	// task goes out as a copy whose rewritten TraceContext parents the
	// worker's stage spans directly under that task's exec span.
	dispatch := func(batch []queued) error {
		tp := m.fr.Start()
		wires := make([]Task, len(batch))
		var payloadBytes, firstSpan int64
		sentAt := time.Now()
		for i, q := range batch {
			task := q.Task
			execSpanID := m.trackInflight(q, workerID)
			wire := task
			if task.Trace != nil && execSpanID != 0 {
				tc := *task.Trace
				tc.ParentSpanID = execSpanID
				wire.Trace = &tc
			}
			if m.taskTimeout > 0 && wire.TimeoutNs == 0 {
				// Give the worker 80% of the master-side deadline as its
				// own execution budget: a cooperative worker then
				// self-reports a timeout result before the master severs
				// the connection.
				wire.TimeoutNs = int64(m.taskTimeout) * 4 / 5
			}
			wires[i] = wire
			payloadBytes += int64(len(wire.Payload))
			if i == 0 {
				firstSpan = execSpanID
			}
			outstanding = append(outstanding, sentTask{task: task, sentAt: sentAt})
		}
		m.cluster.publishWindow(workerID, outstanding)
		if err := c.send(message{Type: msgTaskBatch, Tasks: wires, SentUnixNano: sentAt.UnixNano()}); err != nil {
			requeueOutstanding()
			return obs.Wrap(err)
		}
		m.fr.Probe(flightrec.ProbeMasterAssign, tp, payloadBytes, firstSpan)
		return nil
	}

	// waitAck blocks for the next result frame, connection error or
	// progress deadline, consuming acks strictly in dispatch order. The
	// deadline recovers from silently lost frames: if the worker makes no
	// progress within TaskTimeout, the whole window is assumed dropped —
	// sever the connection so a late result cannot double-deliver, and
	// requeue everything un-acked.
	waitAck := func() error {
		var deadline <-chan time.Time
		if m.taskTimeout > 0 {
			timer := time.NewTimer(m.taskTimeout)
			defer timer.Stop()
			deadline = timer.C
		}
		select {
		case <-deadline:
			head := outstanding[0].task
			m.cTimeouts.Inc()
			lg.Warn("task deadline exceeded, severing worker",
				obs.TaskID(head.ID), obs.JobID(head.JobID), obs.TraceID(head.Trace.traceID()),
				obs.F("outstanding", len(outstanding)))
			_ = conn.Close()
			requeueOutstanding()
			return fmt.Errorf("workqueue: worker %s: task %s deadline (%s) exceeded", workerID, head.ID, m.taskTimeout)
		case rs := <-results:
			start := time.Now()
			for _, r := range rs {
				start = start.Add(-r.Elapsed)
			}
			for _, r := range rs {
				if len(outstanding) == 0 || r.TaskID != outstanding[0].task.ID {
					expect := "nothing"
					if len(outstanding) > 0 {
						expect = outstanding[0].task.ID
					}
					requeueOutstanding()
					return fmt.Errorf("workqueue: worker %s answered task %s with result for %q", workerID, expect, r.TaskID)
				}
				st := outstanding[0]
				outstanding = outstanding[1:]
				// From the later of its dispatch and lastAck to the start
				// of its frame's tasks, which ran back to back until the
				// frame left, is the wire transfer (send + result
				// serialization + transit both ways) — the measured
				// counterpart of the WCET model's transfer budget.
				from := st.sentAt
				if lastAck.After(from) {
					from = lastAck
				}
				m.cluster.taskFinished(workerID, r, start.Sub(from), outstanding)
				m.complete(r)
			}
			lastAck = time.Now()
			return nil
		case err := <-readErr:
			head := outstanding[0].task
			requeueOutstanding()
			lg.Warn("worker lost with task in flight",
				obs.TaskID(head.ID), obs.JobID(head.JobID), obs.TraceID(head.Trace.traceID()),
				obs.Err(err), obs.ErrTrace(err))
			return obs.Wrap(fmt.Errorf("workqueue: worker %s lost: %w", workerID, err))
		}
	}

	for {
		if m.cluster.isReleased(workerID) {
			// Graceful drain: collect the acks for everything already
			// dispatched, then ask the worker to leave; no task is lost.
			for len(outstanding) > 0 {
				if err := waitAck(); err != nil {
					return err
				}
			}
			sendShutdown()
			return nil
		}
		room := min(maxInflight-len(outstanding), batchMax)
		var batch []queued
		if room > 0 {
			if len(outstanding) == 0 {
				// Idle: block until a task arrives, the pool closes, the
				// worker is released, or the reader fails.
				task, ok := w.next(wctx)
				if !ok {
					select {
					case err := <-readErr:
						return obs.Wrap(fmt.Errorf("workqueue: worker %s lost: %w", workerID, err))
					default:
					}
					sendShutdown()
					return nil
				}
				batch = append(batch, task)
			}
			// Fill the rest of the frame opportunistically — never
			// blocking while work is already queued or in flight.
			for len(batch) < room {
				task, ok := m.sched.tryNext()
				if !ok {
					break
				}
				batch = append(batch, task)
			}
		}
		if len(batch) > 0 {
			if err := dispatch(batch); err != nil {
				return err
			}
			continue
		}
		// Window full, or the queue is dry with work still in flight:
		// wait for the next ack, error or deadline.
		if err := waitAck(); err != nil {
			return err
		}
	}
}

// sentTask is one entry of a connection's un-acked window.
type sentTask struct {
	task   Task
	sentAt time.Time
}

// livenessTick is the monitor's check interval: half the tighter
// threshold, fine enough to observe the suspect window, floored so a
// tight config cannot spin (or hand the ticker a zero).
func livenessTick(suspectAfter, deadAfter time.Duration) time.Duration {
	d := suspectAfter
	if d <= 0 || (deadAfter > 0 && deadAfter < d) {
		d = deadAfter
	}
	return max(d/2, 5*time.Millisecond)
}

// ingestRemoteSpans merges worker-side stage spans, already shifted onto
// the master clock by the connection reader, into the master's tracer
// ring. Each span keeps its wire-assigned parent — the master-side exec
// span ID the TraceContext carried out — and is labeled with the worker's
// ID as its process lane for the Chrome export.
func (m *Master) ingestRemoteSpans(workerID string, spans []RemoteSpan) {
	if m.tracer == nil || len(spans) == 0 {
		return
	}
	for _, rs := range spans {
		var attrs map[string]string
		if rs.TaskID != "" {
			attrs = map[string]string{"task": rs.TaskID}
		}
		m.tracer.Ingest(obs.Span{
			Trace:  rs.TraceID,
			Parent: rs.Parent,
			Name:   rs.Name,
			Proc:   workerID,
			Attrs:  attrs,
			Start:  time.Unix(0, rs.StartUnixNano),
			End:    time.Unix(0, rs.StartUnixNano+rs.DurNs),
		})
	}
}

// trackInflight records a task drawn from the pool as in flight, closing
// its queue wait and span and opening its exec span. It returns the exec
// span's ID (0 when tracing is off) — the parent under which the worker's
// remote stage spans will nest.
func (m *Master) trackInflight(q queued, workerID string) int64 {
	q.span.Finish()
	if !q.at.IsZero() {
		m.hWait.ObserveDuration(time.Since(q.at))
	}
	var execSpanID int64
	if m.tracer != nil {
		q.span = m.tracer.NewSpan("exec "+q.ID, q.Span)
		q.span.SetAttr("job", q.JobID)
		q.span.SetAttr("worker", workerID)
		q.span.SetTrace(q.Trace.traceID())
		execSpanID = q.span.SpanID()
	}
	m.mu.Lock()
	m.tasks[q.ID] = taskRec{q: q}
	m.mu.Unlock()
	return execSpanID
}

// quarantineRetention bounds how many poisoned tasks the master retains
// for inspection before the oldest entries are dropped.
const quarantineRetention = 128

// QuarantinedTask is one poisoned task parked by the master after its
// retry budget ran out: every attempt ended in a worker loss or a task
// deadline, so re-running it would keep crash-looping the pool. The
// task stays inspectable while a failed Result lets its job finish
// degraded instead of stalling.
type QuarantinedTask struct {
	Task          Task      `json:"task"`
	Attempts      int       `json:"attempts"`
	QuarantinedAt time.Time `json:"quarantinedAt"`
}

// requeue puts a task lost in flight back in the pool after a worker
// failure — after a backoff delay that grows with the task's attempt
// count, so a crash-looping worker cannot spin a hot requeue cycle —
// preserving at-least-once execution. A task that exhausts its retry
// budget is quarantined and reported as a failed Result instead. A task
// without a record is not in flight (Shutdown may have reported it).
func (m *Master) requeue(t Task) {
	tp := m.fr.Start()
	m.mu.Lock()
	rec, ok := m.tasks[t.ID]
	if !ok {
		m.mu.Unlock()
		return
	}
	rec.q.span.SetAttr("outcome", "lost")
	rec.q.span.Finish()
	attempts := rec.q.attempts + 1
	exhausted := m.maxRetries > 0 && attempts > m.maxRetries
	var delay time.Duration
	switch {
	case exhausted:
		m.quarantineLocked(t, attempts)
		rec.q.attempts, rec.q.span = attempts, nil
		m.tasks[t.ID] = rec
	default:
		q := m.queue(t, attempts)
		if delay = m.backoff.Delay(attempts, m.rng); delay > 0 {
			m.tasks[t.ID] = taskRec{q: q, backoff: time.AfterFunc(delay, func() { m.firePending(t.ID) })}
		} else {
			delete(m.tasks, t.ID)
			m.sched.put(q, false)
		}
	}
	m.mu.Unlock()
	m.fr.Probe(flightrec.ProbeMasterRequeue, tp, int64(attempts), t.Span)
	if exhausted {
		// A poisoned task is exactly the moment the flight recorder's
		// sub-span detail pays off: trip a deep-dive dump of the ring
		// history leading up to the quarantine.
		m.rec.Trip(flightrec.TrigQuarantine,
			fmt.Sprintf("task %s quarantined after %d attempts", t.ID, attempts))
		// Build the quarantine error through obs.Wrap so the synthetic
		// failed Result carries a master-side return path like a genuine
		// worker failure would.
		qerr := obs.Wrap(fmt.Errorf("workqueue: task quarantined after %d lost attempts (retry limit %d)", attempts, m.maxRetries))
		m.logger.Warn("task quarantined: retry limit reached",
			obs.TaskID(t.ID), obs.JobID(t.JobID), obs.TraceID(t.Trace.traceID()),
			obs.F("attempts", attempts), obs.ErrTrace(qerr))
		m.cQuarantined.Inc()
		m.complete(Result{
			TaskID:   t.ID,
			JobID:    t.JobID,
			Err:      qerr.Error(),
			ErrTrace: obs.ReturnTraceString(qerr),
		})
		return
	}
	m.cRetries.Inc()
	m.logger.Info("task requeued after worker loss",
		obs.TaskID(t.ID), obs.JobID(t.JobID), obs.TraceID(t.Trace.traceID()),
		obs.F("attempt", attempts), obs.F("backoff_ms", delay.Milliseconds()))
}

// firePending moves a backed-off task into the pool when its delay
// elapses, unless Shutdown has reported it.
func (m *Master) firePending(id string) {
	m.mu.Lock()
	if rec, ok := m.tasks[id]; ok {
		delete(m.tasks, id)
		m.sched.put(rec.q, false)
	}
	m.mu.Unlock()
}

// quarantineLocked parks a poisoned task, evicting the oldest entry past
// the retention cap. Callers hold m.mu.
func (m *Master) quarantineLocked(t Task, attempts int) {
	if len(m.quarantine) >= quarantineRetention {
		oldestID := ""
		var oldestAt time.Time
		for id, q := range m.quarantine {
			if oldestID == "" || q.QuarantinedAt.Before(oldestAt) {
				oldestID, oldestAt = id, q.QuarantinedAt
			}
		}
		delete(m.quarantine, oldestID)
	}
	m.quarantine[t.ID] = &QuarantinedTask{Task: t, Attempts: attempts, QuarantinedAt: time.Now()}
}

// Quarantined snapshots the poison-task quarantine, sorted by task ID.
func (m *Master) Quarantined() []QuarantinedTask {
	m.mu.Lock()
	var out []QuarantinedTask
	for _, q := range m.quarantine {
		out = append(out, *q)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Task.ID < out[j].Task.ID })
	return out
}

// complete ends a task's record with its result, a worker's or the
// quarantine's, and delivers the result.
func (m *Master) complete(r Result) {
	tp := m.fr.Start()
	var ackParent int64
	m.mu.Lock()
	if rec, ok := m.tasks[r.TaskID]; ok {
		r.Retried = rec.q.attempts > 0
		if s := rec.q.span; s != nil {
			ackParent = s.SpanID()
			if r.Err != "" {
				s.SetAttr("error", r.Err)
			}
			if r.ErrTrace != "" {
				// The worker-side return path rides into the merged
				// Chrome trace next to the failing exec span.
				s.SetAttr("err_trace", r.ErrTrace)
			}
			s.Finish()
		}
		delete(m.tasks, r.TaskID)
	}
	js, ok := m.stats[r.JobID]
	if !ok {
		js = &JobStats{JobID: r.JobID}
		m.stats[r.JobID] = js
	}
	if r.Err != "" {
		js.Failed++
	} else {
		js.Completed++
	}
	closed := m.closed.Load()
	m.mu.Unlock()
	m.fr.Probe(flightrec.ProbeMasterAck, tp, int64(len(r.Output)), ackParent)
	if r.Err != "" {
		m.cFailed.Inc()
	} else {
		m.cCompleted.Inc()
	}
	m.hExec.ObserveDuration(r.Elapsed)
	if !closed {
		m.deliver(r)
	}
}

// deliver puts r on the Results channel. When it is full it waits for the
// reader, or for Shutdown, which must not hang behind results nobody
// drains: only then is a result dropped.
func (m *Master) deliver(r Result) {
	select {
	case m.results <- r:
	default:
		select {
		case m.results <- r:
		case <-m.stopping:
		}
	}
}

// Shutdown closes the task pool, waits for worker handlers spawned by
// Serve to drain and closes the Results channel. Every task left then,
// queued in the closed pool or waiting out a requeue backoff, is reported
// as a failed Result, its open queue span finished with outcome
// "shutdown". A result that meets a full Results channel is dropped; with
// a reader still draining nothing is lost.
func (m *Master) Shutdown() {
	m.stopOnce.Do(func() { close(m.stopping) })
	m.sched.close()
	m.wg.Wait()
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	m.mu.Lock()
	left := m.sched.drain()
	for _, rec := range m.tasks {
		if rec.backoff != nil {
			rec.backoff.Stop()
		}
		left = append(left, rec.q)
	}
	clear(m.tasks)
	m.mu.Unlock()
	for _, q := range left {
		q.span.SetAttr("outcome", "shutdown")
		q.span.Finish()
		m.deliver(Result{TaskID: q.ID, JobID: q.JobID, Err: errShutdown, Retried: q.attempts > 0})
	}
	close(m.results)
}

// errShutdown is the error of a task Shutdown reports unfinished.
const errShutdown = "workqueue: master shut down before the task finished"
