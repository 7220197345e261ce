// Package dtm implements the Dynamic Task Manager of the paper's §IV-B/C:
// the Work Queue master script that (i) spawns a TD job per claim, splits
// it into tasks and submits them to the pool, (ii) merges task results and
// hands the merged series back to the pool for the HMM decode, keeping only
// the serial tail of Eq. 11, and (iii) closes the feedback control loop —
// sampling job progress, feeding per-job PID controllers, and actuating the
// Local Control Knob (job priorities) and Global Control Knob (worker pool
// size).
package dtm

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/social-sensing/sstd/internal/control"
	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/workqueue"
)

// Config parameterizes a Manager.
type Config struct {
	// ACS and Decoder configure the SSTD pipeline; Origin anchors the
	// interval grid.
	ACS     core.ACSConfig
	Decoder core.DecoderConfig
	Origin  time.Time

	// TasksPerJob is how many tasks each TD job is split into. The paper
	// keeps this small to bound init overhead (Eq. 11). Default 4.
	TasksPerJob int
	// Workers is the initial in-process pool size (GCK starting point).
	// Zero means no in-process pool: every worker is remote and dials the
	// listener given to Serve.
	Workers int

	// EnableControl turns the PID feedback loop on.
	EnableControl bool
	// Tuner and WCET parameterize the control loop.
	Tuner control.TunerConfig
	WCET  control.WCETModel
	// SampleEvery is the control sampling period (paper: 1 s).
	SampleEvery time.Duration

	// SuspectAfter and DeadAfter are the master-side thresholds for
	// demoting a silent worker to suspect and evicting it (requeueing its
	// in-flight task). StragglerFactor flags workers whose smoothed exec
	// time exceeds the cluster median by this factor. Zero values disable
	// each mechanism. The defaults are deliberately generous: a false
	// eviction costs a task re-execution, a missed one only delays it.
	SuspectAfter    time.Duration
	DeadAfter       time.Duration
	StragglerFactor float64

	// TaskTimeout is the master-side per-task deadline (lost frames are
	// recovered by severing the worker and requeueing). MaxTaskRetries
	// bounds requeues before a poisoned task is quarantined and its job
	// completes Degraded. Zero values keep each mechanism at the master's
	// defaults (TaskTimeout off, MaxTaskRetries unlimited).
	TaskTimeout    time.Duration
	MaxTaskRetries int
	// TaskBatch enables task batching on the work-queue master: up to
	// this many tasks coalesce into one wire frame per worker, with a
	// pipelined ack window (see workqueue.MasterConfig.BatchSize).
	// Zero keeps the lock-step one-task-per-frame protocol.
	TaskBatch int

	// WrapConn and WrapExec are the chaos layer's injection hooks: the
	// former wraps each pool worker's pipe pair, the latter the task
	// executor. Both nil in production.
	WrapConn func(master, worker net.Conn) (net.Conn, net.Conn)
	WrapExec func(workqueue.Executor) workqueue.Executor

	// Admission enables admission control on SubmitJob: jobs whose
	// predicted completion (given queue depth and the configured or
	// observed per-worker service rate) exceeds their deadline are
	// rejected with workqueue.ErrAdmissionRejected — or, with
	// Admission.Shed set, admitted into a near-zero-priority degraded
	// lane. Nil leaves the gate open.
	Admission *workqueue.AdmissionConfig

	// Seed drives scheduler randomness.
	Seed int64

	// Metrics, Tracer and ControlLog enable telemetry (each may be nil;
	// the instrumentation then costs one nil check per event). Metrics
	// and Tracer are shared with the underlying work-queue master, so
	// one registry sees the whole dtm_*/wq_* catalogue; ControlLog
	// captures every PID tick as a time series. Logger receives
	// structured events (job lifecycle, worker loss, evictions) with
	// trace/job/worker correlation fields.
	Metrics    *obs.Registry
	Tracer     *obs.Tracer
	ControlLog *obs.ControlRecorder
	Logger     *obs.Logger

	// FlightRec overrides the master's flight recorder (default
	// flightrec.Active()), whose every dump gathers the workers' rings
	// into one trace with a lane per host.
	FlightRec *flightrec.Recorder

	// heartbeat is the pool workers' liveness ping interval, 250 ms unless
	// a test shortens it. The package's tests set the rest; every binary
	// leaves them zero. execTimeout is the pool workers' execution cap
	// (zero: none), and requeueBackoff paces requeues (zero: the master's
	// default).
	// workerFlightRec gives each pool worker a private recorder, so
	// in-process workers answer FreezeRings with per-host rings; nil
	// shares the process recorder, and the pool workers' probes land on
	// the master's lane.
	heartbeat       time.Duration
	execTimeout     time.Duration
	requeueBackoff  workqueue.BackoffConfig
	workerFlightRec func(id string) *flightrec.Recorder
}

// DefaultConfig returns a working configuration.
func DefaultConfig(origin time.Time) Config {
	return Config{
		ACS:         core.DefaultACSConfig(),
		Decoder:     core.DefaultDecoderConfig(),
		Origin:      origin,
		TasksPerJob: 4,
		Workers:     4,
		Tuner:       control.DefaultTunerConfig(),
		WCET: control.WCETModel{
			InitTime: time.Millisecond,
			Theta1:   10 * time.Microsecond,
			Theta2:   40 * time.Microsecond,
		},
		SampleEvery:     time.Second,
		SuspectAfter:    2 * time.Second,
		DeadAfter:       10 * time.Second,
		StragglerFactor: 2,
		MaxTaskRetries:  8,
		heartbeat:       250 * time.Millisecond,
	}
}

// SampleEveryFor is the sampling period for jobs due within deadline:
// the paper's 1 s, or a tenth of the deadline when that is shorter, so
// short jobs still see a few ticks. A zero deadline keeps 1 s.
func SampleEveryFor(deadline time.Duration) time.Duration {
	if s := deadline / 10; s > 0 && s < time.Second {
		return s
	}
	return time.Second
}

// JobResult is the outcome of one TD job.
type JobResult struct {
	Claim     socialsensing.ClaimID
	Estimates []core.Estimate
	Err       error
	// Elapsed is wall-clock from submission to completion.
	Elapsed time.Duration
	// Deadline is the job's soft deadline (zero = none).
	Deadline time.Duration
	// MetDeadline reports Elapsed <= Deadline (true when no deadline).
	MetDeadline bool
	// Degraded marks a job decoded from partial data: FailedTasks of its
	// tasks were lost (quarantined after exhausting retries, or failed
	// outright), and the remaining tasks' sums were decoded anyway —
	// graceful degradation instead of stalling the manager. Err stays
	// nil; only a job with no successful task at all reports Err.
	Degraded    bool
	FailedTasks int
	// Shed marks a job the admission gate demoted to the degraded
	// priority lane: it ran, but only on capacity the deadline-bound
	// jobs left idle, so its deadline carries no promise.
	Shed bool
}

// jobState tracks one in-flight TD job on the master side.
type jobState struct {
	claim     socialsensing.ClaimID
	submitted time.Time
	deadline  time.Duration
	// tasks counts the scatter tasks, one per chunk; the decode task follows
	// them. done counts results of either kind, failed lost scatter tasks.
	tasks     int
	done      int
	failed    int
	dataSize  float64 // total reports
	remaining float64 // reports not yet completed
	// pending maps each task whose result is still to come to its report
	// count and chunk index; the decode task's index is tasks. A result for
	// any other task is a duplicate delivery (it raced a requeue) and must
	// not count twice.
	pending map[string]taskSlot
	// sums holds the per-interval sums of the scatter outputs folded so
	// far, in the order they arrived: integer sums are exact, so the order
	// cannot show. intervals, the number of grid intervals the job's
	// reports span, is what no output may reach, and seriesLen the length
	// of the series the outputs describe — the decode task's, whose answer
	// must be a timeline of exactly that length.
	sums                 *[]int64
	intervals, seriesLen int
	// buf holds the job's payloads; retried marks a job one of whose tasks
	// was sent more than once, whose payload memory is never reused.
	buf      *jobBuf
	retried  bool
	firstErr error
	// firstErrTrace is the worker-side return trace that rode the wire
	// with the first failed result (Result.ErrTrace), kept alongside
	// firstErr so the job-failed log can show the remote error path.
	firstErrTrace string
	// shed marks a job the admission gate demoted to the degraded lane.
	shed bool
	span *obs.Span // root trace span; nil without a tracer
	// decode spans the decode task from submit to validated answer; its
	// queue and exec spans and the worker's kernel events nest under it.
	decode *obs.Span
}

type taskSlot struct{ index, reports int }

// Manager is the Dynamic Task Manager.
type Manager struct {
	cfg    Config
	master *workqueue.Master
	pool   *workqueue.Pool
	// decodeHeader opens every decode task: window and decoder config.
	decodeHeader []byte
	results      chan JobResult
	tuner        *control.Tuner

	// encoders share SubmitJob's encode: one per core beyond the
	// submitter's, and none that a job's chunks would leave without one
	// to claim.
	encoders []encodeHelper

	mu   sync.Mutex
	jobs map[string]*jobState

	// fr probes merge/finalize phases into the flight recorder;
	// missBurst trips a deep-dive dump when job deadline misses cluster.
	fr        *flightrec.Ring
	missBurst *flightrec.Burst
	// recycled counts the job buffers put back into jobBufs.
	recycled atomic.Int64
	// starts is the collector's table of interval starts (core.Grid.Starts).
	starts []time.Time

	// Telemetry handles; all nil when telemetry is off.
	tracer        *obs.Tracer
	logger        *obs.Logger
	recorder      *obs.ControlRecorder
	cJobs         *obs.Counter
	cJobsDone     *obs.Counter
	cJobsFailed   *obs.Counter
	cJobsDegraded *obs.Counter
	cDeadlineHit  *obs.Counter
	cDeadlineMiss *obs.Counter
	hJobLatency   *obs.Histogram
	hDecode       *obs.Histogram

	// ctx ends at Close (or when Start's parent does); wg tracks the
	// encode helpers, the collector and the control loop, serving the
	// accept loops of Serve, which must be gone before the master shuts
	// down.
	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	serving   sync.WaitGroup
	closeOnce sync.Once
}

// New validates cfg and builds a Manager. Call Start before submitting.
func New(cfg Config) (*Manager, error) {
	if cfg.Origin.IsZero() {
		return nil, errors.New("dtm: config needs an origin time")
	}
	if cfg.TasksPerJob <= 0 {
		cfg.TasksPerJob = 4
	}
	if cfg.Workers < 0 {
		return nil, errors.New("dtm: config has a negative worker count")
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = time.Second
	}
	// Hold the configuration to what the workers' own parser accepts.
	header := appendDecodeHeader(nil, cfg.ACS.WindowIntervals, cfg.Decoder)
	if _, _, _, err := parseDecodeHeader(header); err != nil {
		return nil, fmt.Errorf("dtm: decoder config: %w", err)
	}
	var tuner *control.Tuner
	if cfg.EnableControl {
		// The tuner refuses a pool of no workers: the loop resizes the
		// in-process pool.
		var err error
		if tuner, err = control.NewTuner(cfg.Tuner, cfg.Workers); err != nil {
			return nil, err
		}
	}
	m := &Manager{
		cfg:          cfg,
		decodeHeader: header,
		results:      make(chan JobResult, 64),
		tuner:        tuner,
		jobs:         make(map[string]*jobState),
		fr:           flightrec.Shared("dtm"),
		missBurst:    flightrec.NewBurst(flightrec.TrigDeadlineMiss, 0, 0),
	}
	m.encoders = make([]encodeHelper, min(runtime.GOMAXPROCS(0), cfg.TasksPerJob)-1)
	for i := range m.encoders {
		m.encoders[i].wake = make(chan struct{})
	}
	m.master = workqueue.NewMaster(workqueue.MasterConfig{
		Seed:            cfg.Seed,
		ResultBuffer:    256,
		MaxRetries:      cfg.MaxTaskRetries,
		TaskTimeout:     cfg.TaskTimeout,
		RequeueBackoff:  cfg.requeueBackoff,
		BatchSize:       cfg.TaskBatch,
		Metrics:         cfg.Metrics,
		Tracer:          cfg.Tracer,
		Logger:          cfg.Logger,
		SuspectAfter:    cfg.SuspectAfter,
		DeadAfter:       cfg.DeadAfter,
		StragglerFactor: cfg.StragglerFactor,
		Admission:       cfg.Admission,
		FlightRec:       cfg.FlightRec,
	})
	exec := workqueue.Executor(ExecuteTask)
	if cfg.WrapExec != nil {
		exec = cfg.WrapExec(exec)
	}
	m.pool = workqueue.NewPool(m.master, exec)
	m.pool.Heartbeat = cfg.heartbeat
	m.pool.Logger = cfg.Logger
	m.pool.ExecTimeout = cfg.execTimeout
	m.pool.WrapConn = cfg.WrapConn
	// A worker that dies without a graceful release is replaced, keeping
	// the pool at its target size (the paper's scavenged pool backfilling
	// evicted nodes).
	m.pool.Respawn = true
	m.pool.WorkerRecorder = cfg.workerFlightRec
	m.tracer = cfg.Tracer
	m.logger = cfg.Logger
	m.recorder = cfg.ControlLog
	if reg := cfg.Metrics; reg != nil {
		m.cJobs = reg.Counter("dtm_jobs_submitted_total")
		m.cJobsDone = reg.Counter("dtm_jobs_completed_total")
		m.cJobsFailed = reg.Counter("dtm_jobs_failed_total")
		m.cJobsDegraded = reg.Counter("dtm_jobs_degraded_total")
		m.cDeadlineHit = reg.Counter("dtm_deadline_hit_total")
		m.cDeadlineMiss = reg.Counter("dtm_deadline_miss_total")
		m.hJobLatency = reg.Histogram("dtm_job_latency_ms", nil)
		m.hDecode = reg.Histogram("dtm_decode_ms", nil)
	}
	return m, nil
}

// Start brings up the worker pool, the encode helpers, the result
// collector and (when enabled) the control loop. Cancelling ctx stops the
// workers, the helpers and the control loop, and a job that finishes after
// it may go unreported, but only Close shuts the master down and ends the
// collector: call Close after cancelling too.
func (m *Manager) Start(ctx context.Context) {
	ctx, m.cancel = context.WithCancel(ctx)
	m.ctx = ctx
	m.pool.Resize(ctx, m.cfg.Workers)
	for i := range m.encoders {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.encoders[i].run(ctx)
		}()
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.collect(ctx)
	}()
	// The loop's sampling half runs for a ControlLog alone; only the
	// actuation half needs the tuner.
	if m.tuner != nil || m.recorder != nil {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.controlLoop(ctx)
		}()
	}
}

// Serve accepts remote workers on l — sstd-worker processes, or any
// workqueue.Worker running ExecuteTask — next to the in-process pool, until
// Close (or the end of Start's context) closes l. Call it after Start.
func (m *Manager) Serve(l net.Listener) {
	m.serving.Add(1)
	go func() {
		defer m.serving.Done()
		if err := m.master.Serve(m.ctx, l); err != nil {
			m.logger.Error("serve workers", obs.Err(err))
		}
	}()
}

// SubmitJob registers a TD job for one claim and enqueues its tasks. The
// deadline is a soft deadline from now; zero means none. A job that
// SubmitJob refuses leaves nothing behind: it can be submitted again.
func (m *Manager) SubmitJob(claim socialsensing.ClaimID, reports []socialsensing.Report, deadline time.Duration) error {
	if claim == "" {
		return errors.New("dtm: job needs a claim id")
	}
	jobID := string(claim)
	// Refuse a duplicate before it costs an encode; the lock below re-checks.
	m.mu.Lock()
	_, dup := m.jobs[jobID]
	m.mu.Unlock()
	if dup {
		return fmt.Errorf("dtm: job %q already submitted", jobID)
	}
	// Encode next: a report the codec refuses must fail the call before
	// the job is registered, admitted or traced.
	chunks := splitReports(reports, m.cfg.TasksPerJob)
	buf := jobBufs.Get().(*jobBuf)
	intervals, err := encodeShared(buf, chunks, m.cfg.Origin, m.cfg.ACS.Interval, m.encoders)
	if err != nil {
		return obs.Wrap(fmt.Errorf("dtm: submit job %s: %w", jobID, err))
	}
	js := &jobState{
		claim:     claim,
		submitted: time.Now(),
		deadline:  deadline,
		tasks:     len(chunks),
		dataSize:  float64(len(reports)),
		remaining: float64(len(reports)),
		pending:   map[string]taskSlot{jobID + "/decode": {index: len(chunks)}},
		sums:      getSums(intervals),
		intervals: intervals,
		buf:       buf,
	}
	tasks := make([]workqueue.Task, len(chunks))
	for i, chunk := range chunks {
		taskID := fmt.Sprintf("%s/%d", jobID, i)
		js.pending[taskID] = taskSlot{index: i, reports: len(chunk)}
		tasks[i] = workqueue.Task{ID: taskID, JobID: jobID, Payload: buf.payloads[i]}
	}
	// Open the job's root span before publishing js: the collector may
	// touch a finished job's span as soon as it is visible. The root span
	// starts a distributed trace whose context every task carries to its
	// worker, so remote stage spans land in the same timeline.
	js.span = m.tracer.NewTrace("job " + jobID)
	js.span.SetAttr("reports", fmt.Sprintf("%d", len(reports)))
	// Admission control: predict the job's completion against its
	// deadline before any task enters the queue. The gate logs its own
	// rejection provenance (with err_trace); here we only finish the
	// just-opened span and surface the errtraced sentinel.
	if d := m.master.AdmitJob(jobID, js.span.TraceID(), len(chunks)+1, deadline); !d.Admit {
		js.span.SetAttr("admission", "rejected")
		js.span.SetAttr("error", d.Err.Error())
		js.span.Finish()
		return obs.Wrap(fmt.Errorf("dtm: submit job %s: %w", jobID, d.Err))
	} else if d.Shed {
		js.shed = true
		js.span.SetAttr("admission", "shed")
	}
	m.mu.Lock()
	if _, dup := m.jobs[jobID]; dup {
		// Lost a race against a concurrent submit of the same claim.
		m.mu.Unlock()
		js.span.Finish()
		return fmt.Errorf("dtm: job %q already submitted", jobID)
	}
	m.jobs[jobID] = js
	m.mu.Unlock()
	m.cJobs.Inc()
	m.logger.Info("job submitted",
		obs.JobID(jobID), obs.TraceID(js.span.TraceID()),
		obs.F("tasks", len(chunks)+1), obs.F("reports", len(reports)))

	var tc *workqueue.TraceContext
	if trace := js.span.TraceID(); trace != "" {
		tc = &workqueue.TraceContext{TraceID: trace, ParentSpanID: js.span.SpanID()}
	}
	for _, task := range tasks {
		task.Span, task.Trace = js.span.SpanID(), tc
		if err := m.master.Submit(task); err != nil {
			// Unregister: a job short of tasks would never complete. What
			// was already enqueued runs for nobody and is dropped on
			// arrival, and may still be sent: the buffer stays with the GC.
			m.unregister(jobID)
			js.span.SetAttr("error", err.Error())
			js.span.Finish()
			return obs.Wrap(fmt.Errorf("dtm: submit job %s: %w", jobID, err))
		}
	}
	if js.shed {
		// Degraded lane: the shed job's tasks only win the weighted-random
		// pick when nothing deadline-bound is queued.
		m.setPriority(jobID, shedPriority)
	}
	return nil
}

// unregister takes a job out of the in-flight set and, once it is out —
// setPriority can then no longer re-introduce it — out of the master.
func (m *Manager) unregister(jobID string) {
	m.mu.Lock()
	delete(m.jobs, jobID)
	m.mu.Unlock()
	m.master.ForgetJob(jobID)
}

// setPriority actuates a job's Local Control Knob. The master keeps the
// weight, for the decode task too, until unregister forgets the job; a
// finished job is left alone, so the master does not learn of it again.
func (m *Manager) setPriority(jobID string, p float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.jobs[jobID]; ok {
		m.master.SetJobPriority(jobID, p)
	}
}

// shedPriority is the scheduler weight of admission-shed jobs — three
// orders of magnitude under the default 1.0, so a shed job drains on
// idle capacity without starving completely.
const shedPriority = 0.001

// Results streams completed TD jobs. Closed by Close.
func (m *Manager) Results() <-chan JobResult { return m.results }

// Workers reports the current in-process pool size.
func (m *Manager) Workers() int { return m.pool.Size() }

// ClusterHealth exposes the master's per-worker health registry:
// liveness state, last-seen, throughput estimates and straggler flags.
func (m *Manager) ClusterHealth() []workqueue.WorkerHealth { return m.master.ClusterHealth() }

// Master is the work-queue master underneath, for its read-only surface:
// the status, cluster and cluster-dump handlers and the attached-worker
// count. Tasks go through SubmitJob, never through it.
func (m *Manager) Master() *workqueue.Master { return m.master }

// Close tears everything down and closes Results. Before teardown it
// records one final control tick: a run whose last job finishes between
// SampleEvery ticks (every short experiment) would otherwise leave the
// artifact without its end state — or, for runs shorter than one tick,
// with no worker rows at all. Safe to call more than once.
func (m *Manager) Close() {
	m.closeOnce.Do(m.close)
}

func (m *Manager) close() {
	if m.recorder != nil {
		m.recorder.BeginTick()
		m.recordWorkerRows(time.Now())
	}
	if m.cancel != nil {
		m.cancel()
	}
	m.serving.Wait()
	m.pool.Close()
	m.master.Shutdown()
	m.wg.Wait()
	close(m.results)
}

// collect merges task results into jobs and finalizes completed jobs. It
// receives until Master.Shutdown closes the channel: the pool's connection
// handlers block on it while delivering, and close() waits for them, so a
// collector that stopped at cancellation would leave Close hanging once
// more results are pending than the channel buffers.
func (m *Manager) collect(ctx context.Context) {
	for r := range m.master.Results() {
		m.handleResult(ctx, r)
	}
}

// handleResult routes one task result to its job: a scatter output is
// checked and folded into the job's sums, the last of them starts the
// decode phase, and the decode task's answer completes the job.
func (m *Manager) handleResult(ctx context.Context, r workqueue.Result) {
	m.mu.Lock()
	js, ok := m.jobs[r.JobID]
	var slot taskSlot
	if ok {
		slot, ok = js.pending[r.TaskID]
	}
	if !ok {
		// The first result for a task is the one that sticks.
		m.mu.Unlock()
		return
	}
	delete(js.pending, r.TaskID)
	js.done++
	js.remaining = max(0, js.remaining-float64(slot.reports))
	m.mu.Unlock()
	// What follows touches only what the collector alone reads and writes.
	if r.Retried {
		// Another copy of the task may still be on its way to a worker.
		js.buf, js.retried = new(jobBuf), true
	}
	if slot.index == js.tasks {
		m.finalize(ctx, js, r)
		return
	}
	var err error
	if r.Err != "" {
		err = errors.New(r.Err)
	} else if bad := js.fold(r.Output, slot.reports); bad != nil {
		err = obs.Wrap(malformed("output", bad))
	}
	if err != nil {
		js.failed++
		if js.firstErr == nil {
			js.firstErr, js.firstErrTrace = err, r.ErrTrace
		}
	}
	switch {
	case js.done < js.tasks:
		// More scatter results to come.
	case js.failed == js.tasks:
		// Every scatter task was lost: nothing to decode.
		m.finish(ctx, js, JobResult{Err: js.firstErr})
	default:
		m.submitDecode(ctx, js)
	}
}

// fold adds a scatter task's output into the job's sums, checking it in
// full on the way — no interval past the job's, no more score than the
// task's reports can carry. A refused output adds nothing.
func (js *jobState) fold(out []byte, reports int) error {
	n, err := foldOutput(js.sums, out, js.intervals, uint64(reports)*core.ScoreOne)
	js.seriesLen = max(js.seriesLen, n)
	return err
}

// submitDecode starts a job's second phase once its last scatter result is
// in: the merged sums go to the pool as the job's decode task.
func (m *Manager) submitDecode(ctx context.Context, js *jobState) {
	jobID := string(js.claim)
	tp := m.fr.Start()
	merge := m.tracer.NewSpan("merge "+jobID, js.span.SpanID())
	// Every scatter task has answered: unless one was sent twice, nothing
	// reads the job's buffer any more, and the decode task reuses it.
	mem := js.buf.decodeBuf()
	*mem = appendOutput(append((*mem)[:0], m.decodeHeader...), (*js.sums)[:js.seriesLen], 0)
	payload := *mem
	merge.Finish()
	m.fr.Probe(flightrec.ProbeDTMMerge, tp, int64(js.seriesLen), merge.SpanID())
	js.decode = m.tracer.NewSpan("decode "+jobID, js.span.SpanID())
	task := workqueue.Task{ID: jobID + "/decode", JobID: jobID, Payload: payload, Span: js.decode.SpanID()}
	if trace := js.span.TraceID(); trace != "" {
		task.Trace = &workqueue.TraceContext{TraceID: trace, ParentSpanID: task.Span}
	}
	if err := m.master.Submit(task); err != nil {
		err = obs.Wrap(fmt.Errorf("dtm: submit decode task of job %s: %w", jobID, err))
		m.finish(ctx, js, JobResult{Err: err})
	}
}

// finalize completes a job from its decode task's answer.
func (m *Manager) finalize(ctx context.Context, js *jobState, r workqueue.Result) {
	var res JobResult
	if r.Err != "" {
		res.Err, js.firstErrTrace = errors.New(r.Err), r.ErrTrace
	} else {
		tp := m.fr.Start()
		m.hDecode.ObserveDuration(r.Elapsed)
		m.starts = core.NewGrid(m.cfg.Origin, m.cfg.ACS.Interval).Starts(m.starts, js.seriesLen)
		if res.Estimates, res.Err = decodeEstimates(r.Output, js.seriesLen, m.starts); res.Err != nil {
			res.Err = obs.Wrap(malformed("truth", res.Err))
		}
		m.fr.Probe(flightrec.ProbeDTMFinalize, tp, int64(js.seriesLen), js.decode.SpanID())
	}
	m.finish(ctx, js, res)
}

// finish stamps a job's completion — its truth, or the reason there is
// none, is in hand — forgets the job and reports it.
func (m *Manager) finish(ctx context.Context, js *jobState, res JobResult) {
	res.Claim, res.Deadline, res.FailedTasks, res.Shed = js.claim, js.deadline, js.failed, js.shed
	res.Degraded = js.failed > 0 && js.failed < js.tasks // decoded, or meant to be, from partial data
	res.Elapsed = time.Since(js.submitted)
	res.MetDeadline = js.deadline == 0 || res.Elapsed <= js.deadline
	m.unregister(string(js.claim))
	if !js.retried {
		jobBufs.Put(js.buf)
		m.recycled.Add(1)
	}
	sumsPool.Put(js.sums)
	// Observe before emitting: whoever holds a JobResult may rely on the
	// counters and the trace already including that job.
	m.observeJob(js, res)
	js.decode.Finish()
	js.span.Finish()
	// Block rather than drop when the consumer is slow, but bail out on
	// shutdown so Close never deadlocks against a full channel.
	select {
	case m.results <- res:
	case <-ctx.Done():
	}
}

// observeJob records one finished job's metrics, log line and span
// attributes.
func (m *Manager) observeJob(js *jobState, res JobResult) {
	switch {
	case res.Err != nil:
		m.cJobsFailed.Inc()
		js.span.SetAttr("error", res.Err.Error())
		fields := []obs.Field{
			obs.JobID(string(js.claim)), obs.TraceID(js.span.TraceID()), obs.Err(res.Err),
		}
		if f := obs.ErrTrace(res.Err); f.Key != "" {
			fields = append(fields, f)
		}
		if js.firstErrTrace != "" {
			fields = append(fields, obs.F("worker_err_trace", js.firstErrTrace))
		}
		m.logger.Warn("job failed", fields...)
	case res.Degraded:
		m.cJobsDone.Inc()
		m.cJobsDegraded.Inc()
		js.span.SetAttr("degraded", fmt.Sprintf("%d/%d tasks lost", res.FailedTasks, js.tasks))
		m.logger.Warn("job completed degraded",
			obs.JobID(string(js.claim)), obs.TraceID(js.span.TraceID()),
			obs.F("failed_tasks", res.FailedTasks), obs.F("tasks", js.tasks),
			obs.F("elapsed_ms", res.Elapsed.Milliseconds()))
	default:
		m.cJobsDone.Inc()
		m.logger.Info("job completed",
			obs.JobID(string(js.claim)), obs.TraceID(js.span.TraceID()),
			obs.F("elapsed_ms", res.Elapsed.Milliseconds()),
			obs.F("deadline_met", res.MetDeadline))
	}
	if js.deadline > 0 {
		if res.MetDeadline {
			m.cDeadlineHit.Inc()
		} else {
			m.cDeadlineMiss.Inc()
			m.missBurst.Observe(fmt.Sprintf("job %s %s over %s deadline",
				js.claim, res.Elapsed, js.deadline))
		}
		js.span.SetAttr("deadline_met", fmt.Sprintf("%t", res.MetDeadline))
	}
	m.hJobLatency.ObserveDuration(res.Elapsed)
}

// controlLoop samples job progress and actuates the knobs.
func (m *Manager) controlLoop(ctx context.Context) {
	ticker := time.NewTicker(m.cfg.SampleEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			m.controlStep(ctx)
		}
	}
}

func (m *Manager) controlStep(ctx context.Context) {
	if m.tuner == nil {
		// A ControlLog without a tuner: observe the workers, actuate nothing.
		m.recorder.BeginTick()
		m.recordWorkerRows(time.Now())
		return
	}
	// The tuner keeps the pool at MinWorkers (at least one); a pool a test
	// emptied predicts no finish, and the tick actuates nothing.
	workers := m.pool.Size()
	m.mu.Lock()
	statuses := make([]control.JobStatus, 0, len(m.jobs))
	for id, js := range m.jobs {
		elapsed := time.Since(js.submitted)
		// Expected finish from the WCET model on the remaining data at
		// the current pool size, assuming equal priority share.
		prio := 1.0 / float64(len(m.jobs))
		wcet, err := m.cfg.WCET.JobWCETSimplified(js.remaining, workers, prio)
		if err != nil {
			continue
		}
		statuses = append(statuses, control.JobStatus{
			JobID:          id,
			Deadline:       js.deadline,
			Elapsed:        elapsed,
			ExpectedFinish: elapsed + wcet,
		})
	}
	m.mu.Unlock()
	if len(statuses) == 0 {
		return
	}
	dec, err := m.tuner.Step(statuses, m.cfg.SampleEvery)
	if err != nil {
		return
	}
	for jobID, p := range dec.Priorities {
		m.setPriority(jobID, p)
	}
	if dec.Workers != m.pool.Size() {
		m.pool.Resize(ctx, dec.Workers)
	}
	if m.recorder != nil {
		now := time.Now()
		m.recorder.BeginTick()
		for _, st := range statuses {
			state, ok := m.tuner.PIDState(st.JobID)
			if !ok {
				continue
			}
			m.recorder.Record(obs.ControlSample{
				Time:             now,
				Job:              st.JobID,
				Error:            state.Err,
				P:                state.P,
				I:                state.I,
				D:                state.D,
				Signal:           dec.Signals[st.JobID],
				LCK:              dec.Priorities[st.JobID],
				GCK:              dec.Workers,
				ExpectedFinishMs: float64(st.ExpectedFinish) / float64(time.Millisecond),
				DeadlineMs:       float64(st.Deadline) / float64(time.Millisecond),
			})
		}
		m.recordWorkerRows(now)
	}
}

// recordWorkerRows appends one per-worker observation row per alive
// worker to the control recorder: observed throughput from the
// heartbeat-fed health registry next to the WCET model's per-task
// prediction (Eq. 10 on the current average task size), so the artifact
// shows where the model and the cluster disagree. Callers open the tick.
func (m *Manager) recordWorkerRows(now time.Time) {
	m.mu.Lock()
	var totData, totTasks float64
	for _, js := range m.jobs {
		totData += js.dataSize
		totTasks += float64(js.tasks)
	}
	m.mu.Unlock()
	var predictedMs float64
	if totTasks > 0 {
		predictedMs = float64(m.cfg.WCET.TaskTime(totData/totTasks)) / float64(time.Millisecond)
	}
	// The model folds per-task transfer into its init term TI (Eq. 10);
	// the registry's measured transfer EWMA sits next to it per worker.
	predictedTransferMs := float64(m.cfg.WCET.InitTime) / float64(time.Millisecond)
	for _, h := range m.master.ClusterHealth() {
		if h.State == workqueue.WorkerDead {
			continue
		}
		m.recorder.RecordWorker(obs.WorkerSample{
			Time:                now,
			Worker:              h.ID,
			State:               string(h.State),
			TasksPerSec:         h.TasksPerSec,
			ObservedExecMs:      h.EWMAExecMs,
			PredictedExecMs:     predictedMs,
			MeasuredTransferMs:  h.EWMATransferMs,
			PredictedTransferMs: predictedTransferMs,
			ClockSkewMs:         h.ClockSkewMs,
			Straggler:           h.Straggler,
		})
	}
}
