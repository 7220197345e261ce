// Command sstd-master runs the SSTD Dynamic Task Manager (internal/dtm)
// with no in-process pool, behind a TCP listener: it loads or generates a
// trace, waits for sstd-worker processes to dial in, submits one TD job per
// claim and prints each job's decoded truth as it completes. SIGINT or
// SIGTERM stops the run, still writing the requested artifacts.
//
// Usage:
//
//	sstd-master -listen :9123 -trace boston -scale 0.005 -min-workers 2
//
// then start one or more workers:
//
//	sstd-worker -master localhost:9123
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/social-sensing/sstd/internal/chaos"
	"github.com/social-sensing/sstd/internal/dtm"
	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
	"github.com/social-sensing/sstd/internal/obs/slo"
	"github.com/social-sensing/sstd/internal/obs/tsdb"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/traceio"
	"github.com/social-sensing/sstd/internal/workqueue"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sstd-master:", err)
		os.Exit(1)
	}
}

// tasksObjective is the error budget /slo reports: 99% of tasks complete.
// Its windows (5 m, 1 h) and burn threshold (14.4) are slo's defaults.
var tasksObjective = slo.Objective{Name: "tasks", Good: "wq_tasks_completed_total", Bad: "wq_tasks_failed_total"}

func run() (runErr error) {
	var (
		listen     = flag.String("listen", ":9123", "address to accept workers on")
		in         = flag.String("in", "", "trace file (from the tracegen command)")
		trace      = flag.String("trace", "paris", "synthetic profile when -in is absent")
		scale      = flag.Float64("scale", 0.005, "synthetic trace scale")
		seed       = flag.Int64("seed", 1, "random seed")
		intervals  = flag.Int("intervals", 80, "HMM time steps across the trace")
		window     = flag.Int("window", 3, "ACS sliding window in intervals")
		tasksPer   = flag.Int("tasks-per-job", 4, "tasks per TD job")
		minWorkers = flag.Int("min-workers", 1, "wait for this many workers before submitting")
		traceOut   = flag.String("trace-out", "", "write the merged Chrome trace_event file here at exit (implies tracing)")

		suspectAfter = flag.Duration("suspect-after", 3*time.Second, "mark a worker suspect after this long without a message (0 disables liveness)")
		deadAfter    = flag.Duration("dead-after", 10*time.Second, "evict a silent worker and requeue its task after this long (0 disables liveness)")
		straggler    = flag.Float64("straggler-factor", 2, "flag workers slower than this multiple of the cluster median exec time")

		taskTimeout = flag.Duration("task-timeout", 0, "requeue a task whose result has not arrived after this long (0 = wait forever)")
		batch       = flag.Int("batch", 0, "task-batch size: coalesce up to N tasks per wire frame to each worker, with a pipelined ack window (0 = lock-step single-task frames)")
		maxRetries  = flag.Int("max-retries", 0, "quarantine a task after this many lost attempts; its job then completes degraded, or fails if every task is lost (0 = retry forever)")

		controlOut = flag.String("control-out", "", "write the control/telemetry artifact (metrics snapshot + per-worker tick series, sampled every second or every tenth of -deadline) here at exit")

		deadline      = flag.Duration("deadline", 0, "per-job soft deadline: counted hit or missed at completion (a burst of misses trips the flight recorder) and the budget admission control predicts against (0 = none)")
		admissionRate = flag.Float64("admission-rate", 0, "measured per-worker service rate (tasks/s) enabling admission control: 1000/(ewmaExecMs+ewmaTransferMs) as /cluster reports it for a busy pool; jobs predicted past -deadline are rejected")
		admissionShed = flag.Bool("admission-shed", false, "shed over-deadline jobs to a near-zero-priority lane instead of rejecting them")

		chaosSpec = flag.String("chaos-spec", "", "TEST ONLY: fault-injection spec applied to every accepted worker connection, e.g. drop=0.3,corrupt=0.05,seed=7 (see internal/chaos)")
	)
	cli := obs.NewCLI(flag.CommandLine, true)
	flag.Parse()
	if err := cli.Start(); err != nil {
		return err
	}
	defer func() { runErr = errors.Join(runErr, cli.Close()) }()

	tr, err := traceio.LoadOrGenerate(*in, *trace, *scale, *seed)
	if err != nil {
		return err
	}
	st := tr.Summarize()
	fmt.Printf("trace %s: %d reports, %d claims\n", st.Name, st.Reports, st.Claims)

	logger := cli.Logger()
	var (
		metrics *obs.Registry
		tracer  *obs.Tracer
	)
	if cli.Telemetry != "" || *controlOut != "" {
		metrics = obs.NewRegistry()
	}
	if cli.Telemetry != "" || *traceOut != "" || cli.FlightRecord != "" {
		// Flight-recorder deep dives merge the span timeline, so recording
		// implies tracing even without a telemetry endpoint.
		tracer = obs.NewTracer(0)
	}
	tracer.Instrument(metrics)
	// Install the recorder before building the manager: probe rings bind
	// at component construction.
	flightRec, err := flightrec.EnableCLI(cli.FlightRecord, tracer, metrics, logger)
	if err != nil {
		return err
	}
	if flightRec != nil {
		fmt.Printf("flight recorder armed: deep dives to %s on every trigger\n", cli.FlightRecord)
	}
	var admission *workqueue.AdmissionConfig
	if *admissionRate > 0 {
		admission = &workqueue.AdmissionConfig{
			TaskRatePerWorker: *admissionRate,
			Deadline:          *deadline,
			Shed:              *admissionShed,
		}
	}
	// The telemetry plane, only when -telemetry serves it: the registry
	// snapshots workers ship on their heartbeats land in the retained
	// time-series store alongside a 1s self-scrape of the master
	// registry, and the SLO engine burns its error budget from the task
	// counters. Its firing edge trips the flight recorder (when armed),
	// whose dump gathers every worker's rings into the same trace file.
	var (
		store     *tsdb.Store
		sloEngine *slo.Engine
	)
	if cli.Telemetry != "" {
		store = tsdb.New(tsdb.DefaultCapacity)
		cli.Go(func(done <-chan struct{}) {
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case now := <-t.C:
					store.Ingest("master", metrics.Snapshot(), now)
				}
			}
		})
		sloEngine = slo.New(slo.Config{Source: metrics, Metrics: metrics, Logger: logger}, tasksObjective)
		cli.Go(func(done <-chan struct{}) { sloEngine.Run(done, time.Second) })
	}
	var recorder *obs.ControlRecorder
	if *controlOut != "" {
		// One tick of per-worker health rows every sampling period, plus
		// a final one at Close so a run shorter than a tick still has its
		// end state.
		recorder = obs.NewControlRecorder(0)
	}
	cfg := dtm.DefaultConfig(tr.Start)
	cfg.ACS.Interval = tr.Duration() / time.Duration(*intervals)
	cfg.ACS.WindowIntervals = *window
	cfg.TasksPerJob = *tasksPer
	cfg.Workers = 0 // every worker is an sstd-worker dialling -listen
	cfg.Seed = *seed
	cfg.SuspectAfter = *suspectAfter
	cfg.DeadAfter = *deadAfter
	cfg.StragglerFactor = *straggler
	cfg.TaskTimeout = *taskTimeout
	cfg.MaxTaskRetries = *maxRetries
	cfg.TaskBatch = *batch
	cfg.Admission = admission
	cfg.Metrics = metrics
	cfg.Tracer = tracer
	cfg.Logger = logger
	cfg.ControlLog = recorder
	cfg.SampleEvery = dtm.SampleEveryFor(*deadline)
	cfg.Telemetry = store
	cfg.FlightRec = flightRec
	mgr, err := dtm.New(cfg)
	if err != nil {
		return err
	}
	master := mgr.Master()
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *listen, err)
	}
	if *chaosSpec != "" {
		spec, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			return fmt.Errorf("-chaos-spec: %w", err)
		}
		l = chaos.New(spec, metrics, tracer).Listen(l)
		fmt.Printf("CHAOS: fault injection armed (seed %d) — test use only\n", spec.Seed)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	mgr.Start(ctx)
	mgr.Serve(l)
	if cli.Telemetry != "" {
		mux := http.NewServeMux()
		mux.Handle("/", obs.Handler(metrics, tracer, logger))
		mux.Handle("/cluster", master.ClusterHandler())
		mux.Handle("/status", master.StatusHandler())
		mux.Handle("/query", store.Handler())
		mux.Handle("/slo", sloEngine.Handler())
		if flightRec != nil {
			mux.Handle("/debug/flightrec", flightRec.Handler())
			mux.Handle("/debug/flightrec/", flightRec.Handler())
		}
		if err := cli.Serve(mux); err != nil {
			mgr.Close()
			return err
		}
		fmt.Printf("telemetry endpoint on %s (/metrics, /trace, /logs, /query, /slo, /cluster, /status, /debug/pprof)\n", cli.Telemetry)
	}
	fmt.Printf("listening on %s, waiting for %d worker(s)...\n", l.Addr(), *minWorkers)
	runErr = runJobs(ctx, mgr, tr, *minWorkers, *deadline)
	// However the run ended, write what was asked for. Close first: the
	// workers' final span flush (their last send spans) arrives before the
	// connections close, so the artifacts are complete.
	mgr.Close()
	if *controlOut != "" {
		if err := obs.WriteArtifactFile(*controlOut, metrics, recorder); err != nil {
			runErr = errors.Join(runErr, fmt.Errorf("write control artifact %s: %w", *controlOut, err))
		} else {
			fmt.Printf("wrote control artifact to %s (%d worker samples)\n", *controlOut, len(recorder.WorkerSamples()))
		}
	}
	if *traceOut != "" {
		if err := tracer.WriteChromeTraceFile(*traceOut); err != nil {
			runErr = errors.Join(runErr, fmt.Errorf("write trace %s: %w", *traceOut, err))
		} else {
			fmt.Printf("wrote Chrome trace to %s (%d spans)\n", *traceOut, tracer.Len())
		}
	}
	if flightRec != nil {
		// Let a trip near shutdown land its deep-dive file before exit.
		flightRec.Wait()
		for _, d := range flightRec.Dumps() {
			fmt.Printf("flight recorder deep dive: %s (%s: %d events, %d spans, hosts %v)\n",
				d.Path, d.Trigger, d.Events, d.Spans, d.Hosts)
		}
	}
	return runErr
}

// runJobs waits for minWorkers, submits one TD job per claim and prints
// every result. A rejected or failed job does not stop the others; the
// error says how the run fell short, if it did.
func runJobs(ctx context.Context, mgr *dtm.Manager, tr *socialsensing.Trace, minWorkers int, deadline time.Duration) error {
	for mgr.Master().WorkerCount() < minWorkers {
		select {
		case <-ctx.Done():
			return errors.New("interrupted waiting for workers")
		case <-time.After(100 * time.Millisecond):
		}
	}
	admitted, rejected := 0, 0
	for claim, reports := range tr.ReportsByClaim() {
		// Admission control (-admission-rate) refuses jobs it predicts
		// past -deadline instead of letting them queue up and miss
		// anyway; the gate logs the rejection.
		switch err := mgr.SubmitJob(claim, reports, deadline); {
		case errors.Is(err, workqueue.ErrAdmissionRejected):
			rejected++
			fmt.Fprintf(os.Stderr, "sstd-master: job %s rejected: %v\n", claim, err)
		case err != nil:
			return err
		default:
			admitted++
		}
	}
	fmt.Printf("submitted %d jobs", admitted)
	if rejected > 0 {
		fmt.Printf(" (%d jobs rejected by admission control)", rejected)
	}
	fmt.Println()

	start := time.Now()
	failed := 0
	for finished := 0; finished < admitted; finished++ {
		var res dtm.JobResult
		select {
		case <-ctx.Done():
			return fmt.Errorf("interrupted with %d/%d jobs finished", finished, admitted)
		case res = <-mgr.Results():
		}
		if res.Err != nil {
			// Every task of the job was lost: nothing to decode.
			failed++
			fmt.Fprintf(os.Stderr, "sstd-master: job %s failed: %v\n", res.Claim, res.Err)
			continue
		}
		trueCount := 0
		for _, e := range res.Estimates {
			if e.Value == socialsensing.True {
				trueCount++
			}
		}
		degraded := ""
		if res.Degraded {
			// Tasks that exhausted -max-retries cost their chunk of data,
			// not the job: it is decoded from the partial sums.
			degraded = fmt.Sprintf("  DEGRADED (%d tasks lost)", res.FailedTasks)
		}
		fmt.Printf("job %-28s done: %3d intervals, true in %3d%s\n", res.Claim, len(res.Estimates), trueCount, degraded)
	}
	fmt.Printf("all %d jobs finished in %s across %d workers\n",
		admitted, time.Since(start).Round(time.Millisecond), mgr.Master().WorkerCount())
	for _, h := range mgr.ClusterHealth() {
		flag := ""
		if h.Straggler {
			flag = "  STRAGGLER"
		}
		fmt.Printf("  worker %-20s %-8s tasks=%-4d exec=%6.1fms rate=%5.2f/s%s\n",
			h.ID, h.State, h.TasksCompleted, h.EWMAExecMs, h.TasksPerSec, flag)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", failed, admitted)
	}
	return nil
}
