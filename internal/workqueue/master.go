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
	JobID          string
	Submitted      int
	Completed      int
	Failed         int
	FirstSubmit    time.Time
	LastCompletion time.Time
	// ExecTime is the cumulative worker-side execution time.
	ExecTime time.Duration
}

// Done reports whether every submitted task has finished.
func (js JobStats) Done() bool { return js.Submitted > 0 && js.Completed+js.Failed == js.Submitted }

// MasterConfig tunes a Master.
type MasterConfig struct {
	// Seed drives the weighted-random job picker (deterministic tests).
	Seed int64
	// SchedShards sets how many lock shards the task pool and the
	// master's per-job bookkeeping are partitioned into. <= 0 picks
	// GOMAXPROCS. One shard reproduces the old single-mutex behavior.
	SchedShards int
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
	gQueue       *obs.Gauge
	gWorkers     *obs.Gauge
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

	// shards partitions all per-job and per-task bookkeeping by job hash
	// (the same hash the scheduler shards by), so a completion ack only
	// ever contends with traffic for jobs on its own shard. closed is
	// atomic: the hot paths read it without any lock.
	shards []masterShard
	closed atomic.Bool
	// stopping is closed when Shutdown begins: it releases handlers blocked
	// delivering into a full results channel nobody reads any more.
	stopping chan struct{}
	stopOnce sync.Once

	wg sync.WaitGroup
}

// masterShard is one lock domain of the master's bookkeeping: job stats,
// the in-flight window, retry attempts, backoff timers, the poison-task
// quarantine and telemetry state for every job hashing to it.
type masterShard struct {
	mu       sync.Mutex
	rng      *rand.Rand // jitter source for requeue backoff; guarded by mu
	stats    map[string]*JobStats
	inflight map[string]Task // taskID -> task, for requeue on worker loss
	attempts map[string]int  // taskID -> requeues so far
	// pending holds the backoff timers of tasks waiting to re-enter the
	// queue after a worker loss; quarantine holds tasks that exhausted
	// their retry budget (capped at quarantineRetention per shard).
	pending    map[string]*time.Timer
	quarantine map[string]*QuarantinedTask
	// queuedAt / taskSpans back the queue-wait histogram and per-task
	// spans; they stay nil (and untouched) without telemetry. taskSpans
	// holds each in-flight task's currently open span (queue or exec).
	queuedAt  map[string]time.Time
	taskSpans map[string]*obs.Span
	_         [24]byte
}

// shardFor maps a job to its bookkeeping shard.
func (m *Master) shardFor(jobID string) *masterShard {
	return &m.shards[shardIndex(jobID, len(m.shards))]
}

// NewMaster creates a master.
func NewMaster(cfg MasterConfig) *Master {
	buf := cfg.ResultBuffer
	if buf <= 0 {
		buf = 1
	}
	m := &Master{
		sched:        newScheduler(cfg.Seed, cfg.SchedShards),
		results:      make(chan Result, buf),
		stopping:     make(chan struct{}),
		maxRetries:   cfg.MaxRetries,
		cluster:      newCluster(cfg.Metrics, cfg.StragglerFactor),
		suspectAfter: cfg.SuspectAfter,
		deadAfter:    cfg.DeadAfter,
		taskTimeout:  cfg.TaskTimeout,
		batchSize:    cfg.BatchSize,
		backoff:      cfg.RequeueBackoff.withDefaults(5*time.Millisecond, 2*time.Second),
		fr:           flightrec.Shared("master"),
	}
	// Bookkeeping shards mirror the scheduler's so a job's queue entries
	// and its in-flight/quarantine state share one lock domain. Each
	// shard carries its own jitter rng: requeue backoff never serializes
	// against dispatch on another shard.
	m.shards = make([]masterShard, len(m.sched.shards))
	for i := range m.shards {
		sh := &m.shards[i]
		sh.rng = rand.New(rand.NewSource(cfg.Seed + 1 + int64(i)))
		sh.stats = make(map[string]*JobStats)
		sh.inflight = make(map[string]Task)
		sh.attempts = make(map[string]int)
		sh.pending = make(map[string]*time.Timer)
		sh.quarantine = make(map[string]*QuarantinedTask)
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
		m.gQueue = reg.Gauge("wq_queue_depth")
		m.gWorkers = reg.Gauge("wq_workers")
		m.hExec = reg.Histogram("wq_task_exec_ms", nil)
		m.hWait = reg.Histogram("wq_task_queue_wait_ms", nil)
	}
	m.tracer = cfg.Tracer
	m.logger = cfg.Logger
	if cfg.Admission != nil {
		m.admission = newAdmissionGate(*cfg.Admission, cfg.Metrics, cfg.Logger)
	}
	m.sched.instrument(cfg.Metrics)
	for i := range m.shards {
		if cfg.Metrics != nil || cfg.Tracer != nil {
			m.shards[i].queuedAt = make(map[string]time.Time)
		}
		if cfg.Tracer != nil {
			m.shards[i].taskSpans = make(map[string]*obs.Span)
		}
	}
	m.telemetry = cfg.Telemetry
	// Every dump of the master's recorder (deadline-miss burst, SLO burn,
	// manual, a worker's trip) gathers the workers' rings into its file.
	m.rec = cfg.FlightRec
	if m.rec == nil {
		m.rec = flightrec.Active()
	}
	m.rec.SetOnTrip(m.gather)
	return m
}

// Submit adds a task to the pool.
func (m *Master) Submit(t Task) error {
	if m.closed.Load() {
		return errors.New("workqueue: master is shut down")
	}
	sh := m.shardFor(t.JobID)
	sh.mu.Lock()
	js, ok := sh.stats[t.JobID]
	if !ok {
		js = &JobStats{JobID: t.JobID, FirstSubmit: time.Now()}
		sh.stats[t.JobID] = js
	}
	js.Submitted++
	m.markQueuedLocked(sh, t)
	sh.mu.Unlock()
	m.cSubmitted.Inc()
	m.sched.push(t)
	m.gQueue.SetInt(m.sched.len())
	return nil
}

// markQueuedLocked opens the task's queue-wait measurement (and span).
// Callers hold sh.mu for the task's shard.
func (m *Master) markQueuedLocked(sh *masterShard, t Task) {
	if sh.queuedAt != nil {
		sh.queuedAt[t.ID] = time.Now()
	}
	if sh.taskSpans != nil {
		s := m.tracer.NewSpan("queue "+t.ID, t.Span)
		s.SetAttr("job", t.JobID)
		s.SetTrace(t.Trace.traceID())
		sh.taskSpans[t.ID] = s
	}
}

// SetJobPriority tunes the Local Control Knob for one job.
func (m *Master) SetJobPriority(jobID string, p float64) {
	m.sched.setPriority(jobID, p)
}

// Results is the stream of task results. It is closed by Shutdown.
func (m *Master) Results() <-chan Result { return m.results }

// Stats returns a snapshot of the named job's progress (zero value when
// unknown).
func (m *Master) Stats(jobID string) JobStats {
	sh := m.shardFor(jobID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if js, ok := sh.stats[jobID]; ok {
		return *js
	}
	return JobStats{JobID: jobID}
}

// AllStats snapshots every job across all shards.
func (m *Master) AllStats() []JobStats {
	var out []JobStats
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, js := range sh.stats {
			out = append(out, *js)
		}
		sh.mu.Unlock()
	}
	return out
}

// ForgetJob drops what the master keeps per job, its stats row and its
// scheduler entry: for submitters that know when a job is over.
func (m *Master) ForgetJob(jobID string) {
	sh := m.shardFor(jobID)
	sh.mu.Lock()
	delete(sh.stats, jobID)
	sh.mu.Unlock()
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
	c := newCodec(conn)
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
	entry, err := m.cluster.attach(workerID, wake, conn, c)
	if err != nil {
		return err
	}
	lg.Info("worker attached")
	m.gWorkers.SetInt(m.cluster.count())
	defer func() {
		m.cluster.detach(workerID, "disconnected")
		lg.Info("worker detached")
		m.gWorkers.SetInt(m.cluster.count())
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
	// directly — no shard lock, no broadcast storm. The cluster attach
	// sequence staggers each handler's steal-scan start shard.
	w := m.sched.getWaiter()
	w.preferred = uint32(entry.seq)
	defer m.sched.putWaiter(w)

	// Reader: demultiplex the worker's messages. Results flow to the
	// handler loop; heartbeats and their telemetry feed the health
	// registry and time-series store directly. Any receive error
	// (including the liveness monitor or handler closing the connection)
	// lands in readErr and wakes the handler if it is blocked waiting for
	// a task. handlerDone is the
	// reader's escape hatch for a stray result nobody will consume —
	// it must not race with normal delivery, so it closes only when this
	// handler returns, not on mere context cancellation.
	//
	// The results channel capacity covers the whole pipelined window: a
	// conforming worker never has more un-acked result frames than
	// un-acked tasks, so the reader can always forward without blocking —
	// the property that keeps the handler free to send the next batch
	// while results stream back (on net.Pipe a blocked reader would
	// deadlock against a blocked send).
	results := make(chan []Result, maxInflight+1)
	readErr := make(chan error, 1)
	handlerDone := make(chan struct{})
	defer close(handlerDone)
	go func() {
		// ships rebuilds this worker's registry from its telemetry: the
		// one decode both the health registry and the tsdb read.
		var ships obs.ShipReceiver
		for {
			msg, err := c.recv()
			if err != nil {
				readErr <- err
				wake()
				return
			}
			// Every incoming message carries the worker's clock stamps and
			// possibly buffered stage spans; fold the former into the skew
			// estimate first so the ingested spans use the freshest offset.
			var d1 int64
			if msg.SentUnixNano != 0 {
				d1 = time.Now().UnixNano() - msg.SentUnixNano
			}
			m.cluster.observeClock(workerID, d1, msg.TaskDelayNs)
			m.ingestRemoteSpans(workerID, msg.Spans)
			if msg.Telemetry != nil {
				snap := ships.Receive(msg.Telemetry)
				m.cluster.recordShip(workerID, snap)
				m.telemetry.Ingest(workerID, snap, time.Now())
			}
			switch msg.Type {
			case msgHeartbeat:
				m.cluster.heartbeat(workerID)
			case msgFlightDump:
				// Either the answer to our FreezeRings broadcast or a
				// worker-initiated trip; a dump is also proof of life for
				// the liveness monitor.
				m.cluster.heartbeat(workerID)
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
	// else is a protocol violation that severs the connection.
	type sentTask struct {
		task   Task
		sentAt time.Time
	}
	var outstanding []sentTask
	requeueOutstanding := func() {
		m.cluster.taskAborted(workerID)
		for _, st := range outstanding {
			m.requeue(st.task)
		}
		outstanding = nil
	}
	// lastAck approximates when the worker finished its previous result.
	// The transfer estimate for a batched result measures from the later
	// of its dispatch and the previous ack, so time a task spent queued
	// behind its batch-mates is not misread as wire time.
	var lastAck time.Time

	// dispatch ships one batch as one task-batch frame. The frame's send
	// stamp feeds the worker's leg of the clock-skew estimate, and each
	// task goes out as a copy whose rewritten TraceContext parents the
	// worker's stage spans directly under that task's exec span.
	dispatch := func(batch []Task) error {
		tp := m.fr.Start()
		wires := make([]Task, len(batch))
		var payloadBytes, firstSpan int64
		sentAt := time.Now()
		for i, task := range batch {
			execSpanID := m.trackInflight(task, workerID)
			m.cluster.taskAssigned(workerID, task.ID)
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
		var timer *time.Timer
		var deadline <-chan time.Time
		if m.taskTimeout > 0 {
			timer = time.NewTimer(m.taskTimeout)
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
			// Wait (bounded) for the reader to observe the severed
			// connection so its error does not leak to a later handler.
			select {
			case <-readErr:
			case <-time.After(time.Second):
			}
			return fmt.Errorf("workqueue: worker %s: task %s deadline (%s) exceeded", workerID, head.ID, m.taskTimeout)
		case rs := <-results:
			if timer != nil {
				timer.Stop()
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
				// Round trip minus the worker-reported execution is the
				// wire transfer (send + result serialization + transit
				// both ways) — the measured counterpart of the WCET
				// model's transfer budget.
				from := st.sentAt
				if lastAck.After(from) {
					from = lastAck
				}
				if transfer := time.Since(from) - r.Elapsed; transfer > 0 {
					m.cluster.observeTransfer(workerID, transfer)
				}
				lastAck = time.Now()
				m.cluster.taskFinished(workerID, r)
				m.complete(r)
			}
			return nil
		case err := <-readErr:
			if timer != nil {
				timer.Stop()
			}
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
		room := maxInflight - len(outstanding)
		if room > batchMax {
			room = batchMax
		}
		var batch []Task
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
				task, ok := w.tryNext()
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

// livenessTick picks the monitor's check interval from the configured
// thresholds: fine enough to observe the suspect window, floored so a
// tight config cannot spin.
func livenessTick(suspectAfter, deadAfter time.Duration) time.Duration {
	d := suspectAfter
	if d <= 0 || (deadAfter > 0 && deadAfter < d) {
		d = deadAfter
	}
	d /= 2
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// ingestRemoteSpans merges worker-side stage spans into the master's
// tracer ring. Remote timestamps are on the worker's clock; the
// per-worker clock-skew estimate (see cluster.observeClock) shifts them
// onto the master clock so the merged timeline orders correctly. Each
// span keeps its wire-assigned parent — the master-side exec span ID the
// TraceContext carried out — and is labeled with the worker's ID as its
// process lane for the Chrome export.
func (m *Master) ingestRemoteSpans(workerID string, spans []RemoteSpan) {
	if m.tracer == nil || len(spans) == 0 {
		return
	}
	adj := m.cluster.clockAdjustNs(workerID)
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
			Start:  time.Unix(0, rs.StartUnixNano+adj),
			End:    time.Unix(0, rs.StartUnixNano+rs.DurNs+adj),
		})
	}
}

// trackInflight moves a task from queued to in-flight, closing its queue
// span and opening its exec span. It returns the exec span's ID (0 when
// tracing is off) — the parent under which the worker's remote stage
// spans will nest.
func (m *Master) trackInflight(t Task, workerID string) int64 {
	sh := m.shardFor(t.JobID)
	sh.mu.Lock()
	sh.inflight[t.ID] = t
	var wait time.Duration
	waited := false
	if sh.queuedAt != nil {
		if at, ok := sh.queuedAt[t.ID]; ok {
			wait, waited = time.Since(at), true
			delete(sh.queuedAt, t.ID)
		}
	}
	var execSpanID int64
	if sh.taskSpans != nil {
		// Guard the lookup: a task assigned without ever being marked
		// queued (a direct scheduler push, or queuedAt/taskSpans enabled
		// mid-run) has no open queue span to finish.
		if s := sh.taskSpans[t.ID]; s != nil {
			s.Finish()
		}
		s := m.tracer.NewSpan("exec "+t.ID, t.Span)
		s.SetAttr("job", t.JobID)
		s.SetAttr("worker", workerID)
		s.SetTrace(t.Trace.traceID())
		sh.taskSpans[t.ID] = s
		execSpanID = s.SpanID()
	}
	sh.mu.Unlock()
	if waited {
		m.hWait.ObserveDuration(wait)
	}
	m.gQueue.SetInt(m.sched.len())
	return execSpanID
}

// quarantineRetention bounds how many poisoned tasks the master retains
// for inspection before the oldest entries are dropped.
const quarantineRetention = 128

// QuarantinedTask is one poisoned task parked by the master after its
// retry budget ran out: every attempt ended in a worker loss or a task
// deadline, so re-running it would keep crash-looping the pool. The
// task stays inspectable (and re-submittable via ReleaseQuarantined)
// while a failed Result lets its job finish degraded instead of stalling.
type QuarantinedTask struct {
	Task          Task      `json:"task"`
	Attempts      int       `json:"attempts"`
	QuarantinedAt time.Time `json:"quarantinedAt"`
}

// requeue puts a task back in the pool after a worker failure — after a
// backoff delay that grows with the task's attempt count, so a
// crash-looping worker cannot spin a hot requeue cycle — preserving
// at-least-once execution. A task that exhausts its retry budget is
// quarantined and reported as a failed Result instead.
func (m *Master) requeue(t Task) {
	tp := m.fr.Start()
	sh := m.shardFor(t.JobID)
	sh.mu.Lock()
	delete(sh.inflight, t.ID)
	if sh.taskSpans != nil {
		if s := sh.taskSpans[t.ID]; s != nil {
			s.SetAttr("outcome", "lost")
			s.Finish()
		}
		delete(sh.taskSpans, t.ID)
	}
	closed := m.closed.Load()
	sh.attempts[t.ID]++
	attempts := sh.attempts[t.ID]
	exhausted := m.maxRetries > 0 && attempts > m.maxRetries
	if exhausted || closed {
		// Drop the attempt count either way: an exhausted task is done,
		// and a closed master will never retry — keeping the entry
		// would leak it forever.
		delete(sh.attempts, t.ID)
	}
	if closed && sh.queuedAt != nil {
		delete(sh.queuedAt, t.ID)
	}
	var delay time.Duration
	if !closed && !exhausted {
		m.markQueuedLocked(sh, t)
		// The jitter rng is per shard: backoff for one job never
		// serializes against dispatch or acks for jobs on other shards.
		delay = m.backoff.Delay(attempts, sh.rng)
	}
	if exhausted && !closed {
		m.quarantineLocked(sh, t, attempts)
	}
	sh.mu.Unlock()
	m.fr.Probe(flightrec.ProbeMasterRequeue, tp, int64(attempts), t.Span)
	if closed {
		return
	}
	if exhausted {
		// A poisoned task is exactly the moment the flight recorder's
		// sub-span detail pays off: trip a deep-dive dump of the ring
		// history leading up to the quarantine.
		flightrec.Trip(flightrec.TrigQuarantine,
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
			Retried:  true,
		})
		return
	}
	m.cRetries.Inc()
	m.logger.Info("task requeued after worker loss",
		obs.TaskID(t.ID), obs.JobID(t.JobID), obs.TraceID(t.Trace.traceID()),
		obs.F("attempt", attempts), obs.F("backoff_ms", delay.Milliseconds()))
	if delay <= 0 {
		m.sched.push(t)
		m.gQueue.SetInt(m.sched.len())
		return
	}
	sh.mu.Lock()
	if m.closed.Load() {
		sh.mu.Unlock()
		return
	}
	sh.pending[t.ID] = time.AfterFunc(delay, func() { m.firePending(t) })
	sh.mu.Unlock()
}

// firePending moves a backed-off task into the scheduler when its delay
// elapses. A master closed in the meantime drops the task (its job can
// never complete anyway — the Results channel is gone).
func (m *Master) firePending(t Task) {
	sh := m.shardFor(t.JobID)
	sh.mu.Lock()
	delete(sh.pending, t.ID)
	closed := m.closed.Load()
	if closed && sh.queuedAt != nil {
		delete(sh.queuedAt, t.ID)
	}
	sh.mu.Unlock()
	if closed {
		return
	}
	m.sched.push(t)
	m.gQueue.SetInt(m.sched.len())
}

// quarantineLocked parks a poisoned task, evicting the oldest entry past
// the retention cap (applied per shard). Callers hold sh.mu.
func (m *Master) quarantineLocked(sh *masterShard, t Task, attempts int) {
	if len(sh.quarantine) >= quarantineRetention {
		oldestID := ""
		var oldestAt time.Time
		for id, q := range sh.quarantine {
			if oldestID == "" || q.QuarantinedAt.Before(oldestAt) {
				oldestID, oldestAt = id, q.QuarantinedAt
			}
		}
		delete(sh.quarantine, oldestID)
	}
	sh.quarantine[t.ID] = &QuarantinedTask{Task: t, Attempts: attempts, QuarantinedAt: time.Now()}
}

// Quarantined snapshots the poison-task quarantine, sorted by task ID.
func (m *Master) Quarantined() []QuarantinedTask {
	var out []QuarantinedTask
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, q := range sh.quarantine {
			out = append(out, *q)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Task.ID < out[j].Task.ID })
	return out
}

// ReleaseQuarantined re-submits a quarantined task with a fresh retry
// budget (e.g. after the fault that poisoned it was fixed). The release
// counts as a new submission in its job's stats.
func (m *Master) ReleaseQuarantined(taskID string) error {
	// Only the task ID is known here, not its job, so scan the shards;
	// releases are rare administrative operations.
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		q, ok := sh.quarantine[taskID]
		if ok {
			delete(sh.quarantine, taskID)
		}
		sh.mu.Unlock()
		if ok {
			return m.Submit(q.Task)
		}
	}
	return fmt.Errorf("workqueue: task %q is not quarantined", taskID)
}

func (m *Master) complete(r Result) {
	tp := m.fr.Start()
	var ackParent int64
	// The entire ack path touches only the result's job shard: an ack
	// for one job never contends with a push or requeue for another.
	sh := m.shardFor(r.JobID)
	sh.mu.Lock()
	delete(sh.inflight, r.TaskID)
	r.Retried = r.Retried || sh.attempts[r.TaskID] > 0
	delete(sh.attempts, r.TaskID)
	if sh.queuedAt != nil {
		delete(sh.queuedAt, r.TaskID)
	}
	if sh.taskSpans != nil {
		if s := sh.taskSpans[r.TaskID]; s != nil {
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
		delete(sh.taskSpans, r.TaskID)
	}
	js, ok := sh.stats[r.JobID]
	if !ok {
		js = &JobStats{JobID: r.JobID}
		sh.stats[r.JobID] = js
	}
	if r.Err != "" {
		js.Failed++
	} else {
		js.Completed++
	}
	js.ExecTime += r.Elapsed
	js.LastCompletion = time.Now()
	jobDone := js.Done()
	closed := m.closed.Load()
	sh.mu.Unlock()
	m.fr.Probe(flightrec.ProbeMasterAck, tp, int64(len(r.Output)), ackParent)
	if jobDone {
		// The scheduler entry of a drained job goes; ForgetJob drops the rest.
		m.sched.forgetJob(r.JobID)
	}
	if r.Err != "" {
		m.cFailed.Inc()
	} else {
		m.cCompleted.Inc()
	}
	m.hExec.ObserveDuration(r.Elapsed)
	if closed {
		return
	}
	select {
	case m.results <- r:
	default:
		// Full: wait for the reader, or for Shutdown, which must not hang
		// behind results nobody drains. Only then is a result dropped.
		select {
		case m.results <- r:
		case <-m.stopping:
		}
	}
}

// taskStateSizes reports the internal per-task map sizes; tests assert
// they drain to zero after a run so long-lived masters cannot leak.
func (m *Master) taskStateSizes() (inflight, attempts int) {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		inflight += len(sh.inflight)
		attempts += len(sh.attempts)
		sh.mu.Unlock()
	}
	return inflight, attempts
}

// Shutdown closes the task pool, waits for worker handlers spawned by
// Serve to drain and closes the Results channel. A handler blocked
// delivering into a full Results channel is released and its result
// dropped; with a reader still draining nothing is lost.
func (m *Master) Shutdown() {
	// Detach the gather step: a later trip (possibly under a new master
	// sharing the process recorder) must not freeze this closed pool.
	m.rec.SetOnTrip(nil)
	m.stopOnce.Do(func() { close(m.stopping) })
	m.sched.close()
	m.wg.Wait()
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	// Stop backed-off requeue timers: the tasks can never run (the pool
	// is closed), and an already-fired timer sees closed and drops out.
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for id, timer := range sh.pending {
			timer.Stop()
			delete(sh.pending, id)
		}
		sh.mu.Unlock()
	}
	close(m.results)
}
