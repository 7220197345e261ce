package workqueue

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// Executor is the function a worker runs for each task payload. Use
// StageError to tag decode/encode failures so the master sees which
// stage of the task pipeline broke, and StartStageSpan to time the same
// stages on the task's distributed trace.
//
// payload is valid only until Exec returns: it views the worker's receive
// buffer, which the next frame overwrites, so keeping any of it takes a
// copy. The output may alias it: results are sent before the next recv.
type Executor func(ctx context.Context, payload []byte) ([]byte, error)

// Worker executes tasks pulled from a master.
type Worker struct {
	// ID identifies the worker to the master. Required.
	ID string
	// Exec performs the task. Required.
	Exec Executor
	// HeartbeatEvery ships a liveness ping to the master on this
	// interval, even while a task is executing, so the master's health
	// registry can tell a busy worker from a hung one. Every fifth ping
	// carries a telemetry ship of the worker's metrics registry. Zero
	// disables heartbeats.
	HeartbeatEvery time.Duration
	// statsEvery is how many heartbeats elapse between telemetry ships;
	// <= 0 means the default of 5, and only this package's tests set it.
	// The first heartbeat always carries one so the master learns the
	// worker's bucket layout immediately.
	statsEvery int
	// Metrics optionally supplies the worker-side telemetry registry
	// (worker_* metrics), letting the process expose the same numbers on
	// its own /metrics endpoint. When nil and heartbeats are enabled, a
	// private registry backs the telemetry ships.
	Metrics *obs.Registry
	// Tracer optionally mirrors the worker's stage spans into a local
	// ring (the worker process's own /trace endpoint). Stage spans are
	// recorded — and shipped to the master — whenever a task carries a
	// TraceContext, regardless of this field; a nil Tracer only disables
	// the local mirror.
	Tracer *obs.Tracer
	// Logger receives structured worker events (task failures, connection
	// errors), each tagged with worker_id/task_id and, for traced tasks,
	// trace_id. Nil disables logging.
	Logger *obs.Logger
	// ExecTimeout caps each task's execution (zero = none). The effective
	// budget is the smaller of this and the task's wire-carried TimeoutNs;
	// past it the executor's context is cancelled and a StageExec timeout
	// result is reported. An executor that ignores cancellation keeps
	// running on its goroutine but can no longer block the task loop.
	ExecTimeout time.Duration
	// WrapConn, when set, wraps every connection the worker dials (Dial
	// and Redial) before the protocol starts — the hook the chaos layer
	// uses to inject transport faults. Nil means the raw connection.
	WrapConn func(net.Conn) net.Conn
	// MaxReconnects bounds consecutive failed reconnect attempts in
	// Redial before it gives up (zero = keep retrying until ctx is
	// cancelled). The counter resets whenever a connection is
	// established.
	MaxReconnects int
	// FlightRec is the worker's own flight recorder: its codec probes into
	// it, its snapshot answers the master's FreezeRings broadcast, and its
	// trips are forwarded to the master, which trips its own recorder and
	// gathers every host. Nil probes into the process-wide recorder
	// (flightrec.Active) and answers a freeze with no events: those rings
	// are already the process's own, a co-located master's included.
	FlightRec *flightrec.Recorder
}

// resultFlushEvery chunks a batch's return path: results ship every this
// many completions (and at batch end), so the master's ack window keeps
// moving while the rest of the batch executes instead of waiting for one
// giant result frame.
const resultFlushEvery = 16

// recorder resolves the worker's flight recorder.
func (w *Worker) recorder() *flightrec.Recorder {
	if w.FlightRec != nil {
		return w.FlightRec
	}
	return flightrec.Active()
}

// Worker-side metric names. The telemetry ship carries the registry they
// live in; the master reads them back out of it (cluster.recordShip).
const (
	mWorkerExecuted   = "worker_tasks_executed_total"
	mWorkerFailed     = "worker_tasks_failed_total"
	mWorkerExec       = "worker_exec_ms"
	mWorkerGoroutines = "worker_goroutines"
	mWorkerHeap       = "worker_heap_bytes"
	mWorkerBytesIn    = "worker_conn_bytes_in"
	mWorkerBytesOut   = "worker_conn_bytes_out"
)

// workerInstruments holds the worker-side metric handles. All methods
// tolerate nil handles, so a worker without telemetry pays only nil
// checks.
type workerInstruments struct {
	cExecuted  *obs.Counter
	cFailed    *obs.Counter
	hExec      *obs.Histogram
	gGoroutine *obs.Gauge
	gHeap      *obs.Gauge
	gBytesIn   *obs.Gauge
	gBytesOut  *obs.Gauge
}

func newWorkerInstruments(reg *obs.Registry) *workerInstruments {
	return &workerInstruments{
		cExecuted:  reg.Counter(mWorkerExecuted),
		cFailed:    reg.Counter(mWorkerFailed),
		hExec:      reg.Histogram(mWorkerExec, nil),
		gGoroutine: reg.Gauge(mWorkerGoroutines),
		gHeap:      reg.Gauge(mWorkerHeap),
		gBytesIn:   reg.Gauge(mWorkerBytesIn),
		gBytesOut:  reg.Gauge(mWorkerBytesOut),
	}
}

// observe records one task execution.
func (i *workerInstruments) observe(elapsed time.Duration, failed bool) {
	i.cExecuted.Inc()
	if failed {
		i.cFailed.Inc()
	}
	i.hExec.ObserveDuration(elapsed)
}

// refreshRuntime samples the process runtime and the connection byte
// counters into their gauges, just before a telemetry ship.
func (i *workerInstruments) refreshRuntime(c *codec) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	i.gGoroutine.SetInt(runtime.NumGoroutine())
	i.gHeap.Set(float64(ms.HeapAlloc))
	i.gBytesIn.Set(float64(c.bytesIn.Load()))
	i.gBytesOut.Set(float64(c.bytesOut.Load()))
}

// workerRun is the per-connection mutable state shared between the task
// loop and the heartbeat goroutine: the pending-span buffer and the last
// observed task delivery delta (for the skew estimate).
type workerRun struct {
	spans         spanBuffer
	lastTaskDelay atomic.Int64
	// reg is the worker registry whose snapshot rides on telemetry
	// heartbeats (nil when telemetry is off).
	reg *obs.Registry
}

// ship samples the runtime gauges and snapshots the registry for a
// heartbeat's telemetry; nil when telemetry is off.
func (r *workerRun) ship(c *codec, inst *workerInstruments) *obs.RegistrySnapshot {
	if r.reg == nil {
		return nil
	}
	inst.refreshRuntime(c)
	snap := r.reg.Snapshot()
	return &snap
}

// stamp fills the envelope's clock fields just before a send.
func (r *workerRun) stamp(m *message) {
	m.SentUnixNano = time.Now().UnixNano()
	m.TaskDelayNs = r.lastTaskDelay.Load()
}

// Run speaks the worker side of the protocol on conn until the master
// sends a shutdown, the connection drops, or ctx is cancelled.
func (w *Worker) Run(ctx context.Context, conn net.Conn) error {
	if w.ID == "" || w.Exec == nil {
		return fmt.Errorf("workqueue: worker needs ID and Exec")
	}
	lg := w.Logger.With(obs.WorkerID(w.ID))
	rec := w.recorder()
	c := newCodecWith(conn, rec)
	c.alias = true // the loop below is synchronous: recv, runBatch, recv
	defer func() { _ = c.close() }()
	// Unblock reads when ctx is cancelled.
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	defer stop()

	if err := c.send(message{Type: msgHello, WorkerID: w.ID}); err != nil {
		return err
	}
	reg := w.Metrics
	if reg == nil && w.HeartbeatEvery > 0 {
		reg = obs.NewRegistry()
	}
	inst := newWorkerInstruments(reg)
	run := &workerRun{reg: reg}
	if w.HeartbeatEvery > 0 {
		hbStop := make(chan struct{})
		defer close(hbStop)
		go w.heartbeatLoop(ctx, c, inst, run, hbStop)
	}
	if w.FlightRec != nil {
		// A local trip ships an unsolicited dump (Seq 0, no events): the
		// master trips its own recorder, whose gather step freezes this
		// worker too. Only wired for a dedicated recorder: hooking the
		// process-wide one would hijack a co-located master's gather.
		rec.SetOnTrip(func(trigger, detail string, _ time.Duration) []obs.HostEvents {
			env := message{Type: msgFlightDump, WorkerID: w.ID, Dump: &FlightDump{Trigger: trigger, Detail: detail}}
			run.stamp(&env)
			_ = c.send(env)
			return nil
		})
		defer rec.SetOnTrip(nil)
	}
	for {
		m, err := c.recv()
		recvAt := time.Now()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			lg.Error("worker connection lost", obs.Err(err), obs.ErrTrace(err))
			return obs.Wrap(fmt.Errorf("workqueue: worker %s recv: %w", w.ID, err))
		}
		switch m.Type {
		case msgShutdown:
			// Flush buffered spans AND a final telemetry ship on the way
			// out (mirroring the PR 6 final-control-tick flush), so a
			// short-lived worker's last window of work still reaches the
			// master's registry and time-series store.
			fin := message{Type: msgHeartbeat, WorkerID: w.ID, Spans: run.spans.drain(), Telemetry: run.ship(c, inst)}
			if fin.Telemetry != nil || len(fin.Spans) > 0 {
				run.stamp(&fin)
				_ = c.send(fin)
			}
			return nil
		case msgFreeze:
			// FreezeRings: snapshot this host's own probe rings and ship
			// them back for the master's trace. Handled between tasks (the
			// loop is synchronous), so a freeze that lands mid-task is
			// answered as soon as the task's result is sent.
			if m.Freeze == nil {
				return fmt.Errorf("workqueue: worker %s got freeze message without request", w.ID)
			}
			d := FlightDump{
				Seq:     m.Freeze.Seq,
				Trigger: m.Freeze.Trigger,
				Detail:  m.Freeze.Detail,
				Events:  w.FlightRec.Events(time.Duration(m.Freeze.WindowNs)),
			}
			env := message{Type: msgFlightDump, WorkerID: w.ID, Dump: &d}
			run.stamp(&env)
			if err := c.send(env); err != nil {
				return err
			}
		case msgTaskBatch:
			if len(m.Tasks) == 0 {
				return fmt.Errorf("workqueue: worker %s got task-batch message without tasks", w.ID)
			}
			if m.SentUnixNano != 0 {
				run.lastTaskDelay.Store(recvAt.UnixNano() - m.SentUnixNano)
			}
			if err := w.runBatch(ctx, c, m.Tasks, recvAt, inst, run, lg); err != nil {
				return err
			}
			if ctx.Err() != nil {
				// Preempted mid-batch: exit without reporting the rest so
				// the master requeues its un-acked window onto live
				// workers.
				return nil
			}
		default:
			return fmt.Errorf("workqueue: worker %s got unexpected message %q", w.ID, m.Type)
		}
	}
}

// execOne runs one task through the full stage pipeline — recv span,
// executor under its budget, result construction with error provenance —
// and buffers the finished stage spans. arrivedAt is when the task
// became runnable on this worker: the frame receive time for a frame's
// first task, the previous task's completion for later batch-mates (so
// the recv span shows wire transit for the former and in-batch queueing
// for the latter). ok=false means the worker is being preempted (ctx
// cancelled): the caller must exit without reporting, leaving the master
// to requeue.
func (w *Worker) execOne(ctx context.Context, task *Task, arrivedAt time.Time, inst *workerInstruments, run *workerRun, lg *obs.Logger) (Result, *TaskTrace, bool) {
	tt := newTaskTrace(task.Trace, task.ID, task.Span)
	start := time.Now()
	tt.add(StageRecv, arrivedAt, start)
	out, execErr := w.runExec(withTaskTrace(ctx, tt), task)
	elapsed := time.Since(start)
	tt.add(StageExec, start, start.Add(elapsed))
	inst.observe(elapsed, execErr != nil)
	if execErr != nil && ctx.Err() != nil {
		return Result{}, nil, false
	}
	res := Result{
		TaskID:   task.ID,
		JobID:    task.JobID,
		WorkerID: w.ID,
		Output:   out,
		Elapsed:  elapsed,
	}
	if execErr != nil {
		te := newTaskError(w.ID, task.ID, execErr)
		res.Err = te.Error()
		res.ErrStage = te.Stage
		res.ErrTrace = te.ReturnTrace()
		lg.Warn("task failed",
			obs.TaskID(task.ID), obs.JobID(task.JobID),
			obs.TraceID(task.Trace.traceID()), obs.F("stage", te.Stage), obs.Err(te.Err),
			obs.ErrTrace(execErr))
	}
	run.spans.add(tt.take()...)
	return res, tt, true
}

// runBatch executes one task-batch frame in order, streaming results
// back as chunked result-batch frames: a flush every resultFlushEvery
// completions (and at batch end) bounds result latency and keeps the
// master's ack window moving while the rest of the batch executes. Each
// result frame also ships the spans finished so far — the previous
// frame's send span plus these tasks' stages. A preemption mid-batch
// (pool shrink or shutdown) returns nil with ctx cancelled; the
// un-reported remainder is requeued by the master.
func (w *Worker) runBatch(ctx context.Context, c *codec, tasks []Task, recvAt time.Time, inst *workerInstruments, run *workerRun, lg *obs.Logger) error {
	var done []Result
	var lastTT *TaskTrace
	flush := func() error {
		if len(done) == 0 {
			return nil
		}
		env := message{Type: msgResultBatch, Results: done, Spans: run.spans.drain()}
		run.stamp(&env)
		w.mirror(env.Spans)
		sendStart := time.Now()
		if err := c.send(env); err != nil {
			return err
		}
		if lastTT != nil {
			lastTT.add(StageSend, sendStart, time.Now())
			sent := lastTT.take()
			run.spans.add(sent...)
			w.mirror(sent)
		}
		done, lastTT = nil, nil
		return nil
	}
	arrived := recvAt
	for i := range tasks {
		res, tt, ok := w.execOne(ctx, &tasks[i], arrived, inst, run, lg)
		if !ok {
			return nil // preempted; the caller checks ctx
		}
		arrived = time.Now()
		done = append(done, res)
		lastTT = tt
		if len(done) >= resultFlushEvery {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// traceID is a nil-safe accessor used for log tagging.
func (tc *TraceContext) traceID() string {
	if tc == nil {
		return ""
	}
	return tc.TraceID
}

// mirror copies outgoing remote spans into the worker's local tracer
// ring (its own /trace endpoint). No-op without a tracer.
func (w *Worker) mirror(spans []RemoteSpan) {
	if w.Tracer == nil {
		return
	}
	for _, rs := range spans {
		w.Tracer.Ingest(obs.Span{
			Trace:  rs.TraceID,
			Parent: rs.Parent,
			Name:   rs.Name,
			Attrs:  map[string]string{"task": rs.TaskID},
			Start:  time.Unix(0, rs.StartUnixNano),
			End:    time.Unix(0, rs.StartUnixNano+rs.DurNs),
		})
	}
}

// heartbeatLoop ships liveness pings, every statsEvery-th carrying a
// telemetry ship, until the worker exits or the connection fails. It runs
// concurrently with task execution: the codec serializes the writes.
// Each ping carries the
// clock-skew timestamps and any buffered stage spans, so span delivery
// does not wait for the next result.
func (w *Worker) heartbeatLoop(ctx context.Context, c *codec, inst *workerInstruments, run *workerRun, stop <-chan struct{}) {
	statsEvery := w.statsEvery
	if statsEvery <= 0 {
		statsEvery = 5
	}
	t := time.NewTicker(w.HeartbeatEvery)
	defer t.Stop()
	for n := 0; ; n++ {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-t.C:
			m := message{Type: msgHeartbeat, WorkerID: w.ID, Spans: run.spans.drain()}
			if n%statsEvery == 0 {
				// The worker half of the telemetry plane.
				m.Telemetry = run.ship(c, inst)
			}
			run.stamp(&m)
			w.mirror(m.Spans)
			if err := c.send(m); err != nil {
				// Return undelivered spans so a later flush can retry.
				run.spans.add(m.Spans...)
				return
			}
		}
	}
}

// runExec invokes the executor under the task's execution budget — the
// smaller of the worker's ExecTimeout and the task's wire-carried
// TimeoutNs, zero meaning none. On timeout the context handed to the
// executor is cancelled and a StageExec timeout error returned; the late
// return of an executor that ignores cancellation is discarded.
func (w *Worker) runExec(ctx context.Context, t *Task) ([]byte, error) {
	budget := w.ExecTimeout
	if tb := time.Duration(t.TimeoutNs); tb > 0 && (budget <= 0 || tb < budget) {
		budget = tb
	}
	if budget <= 0 {
		out, err := w.Exec(ctx, t.Payload)
		return out, obs.Wrap(err)
	}
	ectx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	type execOut struct {
		out []byte
		err error
	}
	done := make(chan execOut, 1)
	payload := bytes.Clone(t.Payload) // the executor may outlive the receive buffer
	go func() {
		out, err := w.Exec(ectx, payload)
		done <- execOut{out, err}
	}()
	select {
	case r := <-done:
		// The executor's error crossed the done channel to get here:
		// exactly the cross-goroutine hop a return trace records and a
		// stack trace loses.
		return r.out, obs.Wrap(r.err)
	case <-ectx.Done():
		if err := ctx.Err(); err != nil {
			// Worker-level cancellation (shutdown or preemption), not a
			// task timeout: surface it so the caller's preemption path
			// exits without reporting and the master requeues the task.
			return nil, err
		}
		return nil, obs.Wrap(StageError(StageExec, fmt.Errorf("workqueue: execution exceeded %s budget", budget)))
	}
}

// Dial connects to a master over TCP and runs until shutdown.
func (w *Worker) Dial(ctx context.Context, addr string) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("workqueue: dial master %s: %w", addr, err)
	}
	if w.WrapConn != nil {
		conn = w.WrapConn(conn)
	}
	return w.Run(ctx, conn)
}

// reconnectBackoff paces Redial's reconnect attempts after a dial failure
// or a dropped connection: 50ms, doubling to a 5s cap, 20% jitter.
var reconnectBackoff = BackoffConfig{Base: 50 * time.Millisecond, Max: 5 * time.Second, Factor: 2, Jitter: 0.2}

// Redial runs the worker against addr, reconnecting with exponential
// backoff + jitter whenever the connection drops, until the master sends
// a shutdown, ctx is cancelled, or MaxReconnects consecutive attempts
// fail. It is the long-lived form of Dial for elastic pools where master
// restarts and transient partitions are routine (§IV's scavenged
// deployments).
func (w *Worker) Redial(ctx context.Context, addr string) error {
	// The jitter draw is seeded from the worker ID: reconnect schedules
	// stay reproducible for a fixed pool layout, while distinct workers
	// de-synchronize after a shared master restart.
	rng := rand.New(rand.NewSource(int64(hashString(w.ID))))
	lg := w.Logger.With(obs.WorkerID(w.ID))
	var d net.Dialer
	failures := 0
	for attempt := 1; ; attempt++ {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			if w.WrapConn != nil {
				conn = w.WrapConn(conn)
			}
			failures = 0
			err = w.Run(ctx, conn)
			if err == nil {
				// Clean shutdown from the master (or ctx cancellation).
				return nil
			}
			attempt = 0 // restart the backoff schedule after a live connection
		} else {
			failures++
			if w.MaxReconnects > 0 && failures >= w.MaxReconnects {
				return fmt.Errorf("workqueue: worker %s: %d consecutive dial failures: %w", w.ID, failures, err)
			}
		}
		if ctx.Err() != nil {
			return nil
		}
		delay := reconnectBackoff.Delay(attempt, rng)
		lg.Info("reconnecting to master",
			obs.F("addr", addr), obs.F("backoff_ms", delay.Milliseconds()), obs.Err(err))
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(delay):
		}
	}
}

// hashString is FNV-1a, used to derive per-worker jitter seeds.
func hashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
