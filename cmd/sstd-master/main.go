// Command sstd-master runs the SSTD Work Queue master over TCP: it loads or
// generates a trace, listens for sstd-worker processes, distributes the
// per-claim TD jobs across them and prints results as jobs complete.
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
	"time"

	"github.com/social-sensing/sstd/internal/chaos"
	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/dtm"
	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
	"github.com/social-sensing/sstd/internal/obs/slo"
	"github.com/social-sensing/sstd/internal/obs/tsdb"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/tracegen"
	"github.com/social-sensing/sstd/internal/traceio"
	"github.com/social-sensing/sstd/internal/workqueue"
)

// job is one admitted TD job on its way through the cluster.
type job struct {
	// outputs[i] is the output of the task that ran chunk i; it stays nil
	// for a task that failed.
	outputs      [][]byte
	intervals    int
	done, failed int
	span         *obs.Span
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sstd-master:", err)
		os.Exit(1)
	}
}

func run() error {
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
		status     = flag.String("status", "", "optional address for the JSON status endpoint (e.g. :9124)")
		telemetry  = flag.String("telemetry", "", "optional address serving /metrics, /trace, /logs, /cluster, /status and /debug/pprof (e.g. :9125)")
		traceOut   = flag.String("trace-out", "", "write the merged Chrome trace_event file here at exit (implies tracing)")
		logLevel   = flag.String("log-level", "info", "structured log threshold: debug, info, warn or error")

		suspectAfter = flag.Duration("suspect-after", 3*time.Second, "mark a worker suspect after this long without a message (0 disables liveness)")
		deadAfter    = flag.Duration("dead-after", 10*time.Second, "evict a silent worker and requeue its task after this long (0 disables liveness)")
		straggler    = flag.Float64("straggler-factor", 2, "flag workers slower than this multiple of the cluster median exec time")

		taskTimeout = flag.Duration("task-timeout", 0, "requeue a task whose result has not arrived after this long (0 = wait forever)")
		batch       = flag.Int("batch", 0, "task-batch size: coalesce up to N tasks per wire frame to each worker, with a pipelined ack window (0 = lock-step single-task frames)")
		maxRetries  = flag.Int("max-retries", 0, "quarantine a task after this many lost attempts and finish its job degraded (0 = retry forever)")

		controlOut  = flag.String("control-out", "", "write the control/telemetry artifact (metrics snapshot + per-worker tick series) here at exit")
		sampleEvery = flag.Duration("sample-every", time.Second, "per-worker sampling period for -control-out")

		deadline      = flag.Duration("deadline", 0, "per-job completion budget fed to admission control (0 = none)")
		admissionRate = flag.Float64("admission-rate", 0, "fitted per-worker service rate (tasks/s) enabling admission control; jobs predicted past -deadline are rejected (from a loadgen capacity fit)")
		admissionShed = flag.Bool("admission-shed", false, "shed over-deadline jobs to a near-zero-priority lane instead of rejecting them")

		chaosSpec = flag.String("chaos-spec", "", "TEST ONLY: fault-injection spec applied to every accepted worker connection, e.g. drop=0.3,corrupt=0.05 (see internal/chaos)")
		chaosSeed = flag.Int64("chaos-seed", 0, "TEST ONLY: seed for the fault-injection schedule (overrides any seed in -chaos-spec)")

		flightRecord = flag.String("flight-record", "", "enable the always-on flight recorder; deep-dive trace files land in this directory when an SLO trigger fires")
		flightDumpOn = flag.String("flight-dump-on", "all", "comma-separated triggers that dump a deep dive: deadline-miss, straggler, admission, quarantine, manual (or all)")

		sloGood   = flag.String("slo-good", "wq_tasks_completed_total", "good-event counter for the error-budget objective (needs -telemetry)")
		sloBad    = flag.String("slo-bad", "wq_tasks_failed_total", "bad-event counter for the error-budget objective")
		sloTarget = flag.Float64("slo-target", 0.99, "success-ratio objective")
		sloFast   = flag.Duration("slo-fast", 5*time.Minute, "fast burn-rate window")
		sloSlow   = flag.Duration("slo-slow", time.Hour, "slow burn-rate window")
		sloBurn   = flag.Float64("slo-burn", 14.4, "burn-rate multiple that fires the alert (both windows)")

		schedShards = flag.Int("sched-shards", 0, "scheduler shard count (0 = GOMAXPROCS)")
		tsdbPoints  = flag.Int("tsdb-points", 0, "retained points per telemetry time series (0 = default 512)")

		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		mutexprofile = flag.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
		blockprofile = flag.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := obs.StartProfilingWith(obs.ProfileConfig{
		CPUPath:   *cpuprofile,
		MemPath:   *memprofile,
		MutexPath: *mutexprofile,
		BlockPath: *blockprofile,
	})
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "sstd-master: profile:", perr)
		}
	}()

	tr, err := loadTrace(*in, *trace, *scale, *seed)
	if err != nil {
		return err
	}
	st := tr.Summarize()
	fmt.Printf("trace %s: %d reports, %d claims\n", st.Name, st.Reports, st.Claims)

	logger := obs.NewLogger(os.Stderr, obs.ParseLogLevel(*logLevel), 0)
	var (
		metrics *obs.Registry
		tracer  *obs.Tracer
	)
	if *telemetry != "" || *controlOut != "" {
		metrics = obs.NewRegistry()
	}
	if *telemetry != "" || *traceOut != "" || *flightRecord != "" {
		// Flight-recorder deep dives merge the span timeline, so recording
		// implies tracing even without a telemetry endpoint.
		tracer = obs.NewTracer(0)
	}
	tracer.Instrument(metrics)
	// Install the recorder before building the master: probe rings bind
	// at component construction.
	flightRec, err := flightrec.EnableCLI(*flightRecord, *flightDumpOn, tracer, metrics, logger)
	if err != nil {
		return err
	}
	if flightRec != nil {
		fmt.Printf("flight recorder armed: deep dives to %s on [%s]\n", *flightRecord, *flightDumpOn)
	}
	var admission *workqueue.AdmissionConfig
	if *admissionRate > 0 {
		admission = &workqueue.AdmissionConfig{
			TaskRatePerWorker: *admissionRate,
			Deadline:          *deadline,
			Shed:              *admissionShed,
		}
	}
	// The telemetry plane: worker TelemetryShip frames land in the retained
	// time-series store alongside a 1s self-scrape of the master registry,
	// and the SLO engine burns its error budget from the configured counter
	// pair. Its firing edge trips the flight recorder (when armed), which
	// cascades into a cross-host FreezeRings collection.
	var (
		store     *tsdb.Store
		sloEngine *slo.Engine
	)
	planeStop := make(chan struct{})
	defer close(planeStop)
	if metrics != nil {
		store = tsdb.New(*tsdbPoints)
		go func() {
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for {
				select {
				case <-planeStop:
					return
				case now := <-t.C:
					store.ScrapeRegistry(metrics, "master", now)
				}
			}
		}()
		sloEngine = slo.New(slo.Config{Source: metrics, Metrics: metrics, Logger: logger}, slo.Objective{
			Name: "tasks", Good: *sloGood, Bad: *sloBad,
			Target: *sloTarget, FastWindow: *sloFast, SlowWindow: *sloSlow, BurnThreshold: *sloBurn,
		})
		go sloEngine.Run(planeStop, time.Second)
	}
	var clusterDumps *workqueue.ClusterDumpConfig
	if *flightRecord != "" {
		clusterDumps = &workqueue.ClusterDumpConfig{Dir: *flightRecord}
	}
	master := workqueue.NewMaster(workqueue.MasterConfig{
		Seed: *seed, SchedShards: *schedShards, ResultBuffer: 256,
		Metrics: metrics, Tracer: tracer, Logger: logger,
		SuspectAfter:    *suspectAfter,
		DeadAfter:       *deadAfter,
		StragglerFactor: *straggler,
		TaskTimeout:     *taskTimeout,
		MaxRetries:      *maxRetries,
		BatchSize:       *batch,
		Admission:       admission,
		Telemetry:       store,
		FlightRec:       flightRec,
		ClusterDumps:    clusterDumps,
	})
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *listen, err)
	}
	if *chaosSpec != "" || *chaosSeed != 0 {
		spec, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			return fmt.Errorf("-chaos-spec: %w", err)
		}
		if *chaosSeed != 0 {
			spec.Seed = *chaosSeed
		}
		l = chaos.New(spec, metrics, tracer).Listen(l)
		fmt.Printf("CHAOS: fault injection armed (seed %d) — test use only\n", spec.Seed)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		if err := master.Serve(ctx, l); err != nil {
			fmt.Fprintln(os.Stderr, "sstd-master: serve:", err)
		}
	}()
	// Per-worker control sampling for the -control-out artifact: one tick
	// of health-registry rows every -sample-every. The final tick is
	// recorded at shutdown (below), so a run that finishes between ticks —
	// or entirely inside the first tick — still produces its end state.
	var recorder *obs.ControlRecorder
	samplerStop := make(chan struct{})
	samplerDone := make(chan struct{})
	if *controlOut != "" {
		recorder = obs.NewControlRecorder(0)
		go func() {
			defer close(samplerDone)
			t := time.NewTicker(*sampleEvery)
			defer t.Stop()
			for {
				select {
				case <-samplerStop:
					return
				case <-t.C:
					recordWorkerTick(recorder, master)
				}
			}
		}()
	} else {
		close(samplerDone)
	}
	if *status != "" {
		mux := http.NewServeMux()
		mux.Handle("/", master.StatusHandler())
		mux.Handle("/cluster", master.ClusterHandler())
		statusSrv := &http.Server{Addr: *status, Handler: mux}
		go func() {
			if err := statusSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "sstd-master: status endpoint:", err)
			}
		}()
		defer func() { _ = statusSrv.Close() }()
		fmt.Printf("status endpoint on %s (/, /cluster)\n", *status)
	}
	if *telemetry != "" {
		mux := http.NewServeMux()
		mux.Handle("/", obs.Handler(metrics, tracer, logger))
		mux.Handle("/cluster", master.ClusterHandler())
		mux.Handle("/status", master.StatusHandler())
		mux.Handle("/query", store.Handler())
		mux.Handle("/slo", sloEngine.Handler())
		if clusterDumps != nil {
			mux.Handle("/dump/cluster", master.ClusterDumpHandler())
		}
		if flightRec != nil {
			mux.Handle("/debug/flightrec", flightRec.Handler())
			mux.Handle("/debug/flightrec/", flightRec.Handler())
		}
		telemetrySrv := &http.Server{Addr: *telemetry, Handler: mux}
		go func() {
			if err := telemetrySrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "sstd-master: telemetry endpoint:", err)
			}
		}()
		defer func() { _ = telemetrySrv.Close() }()
		fmt.Printf("telemetry endpoint on %s (/metrics, /trace, /logs, /query, /slo, /cluster, /status, /debug/pprof)\n", *telemetry)
	}
	fmt.Printf("listening on %s, waiting for %d worker(s)...\n", l.Addr(), *minWorkers)
	for master.WorkerCount() < *minWorkers {
		time.Sleep(100 * time.Millisecond)
	}

	width := tr.Duration() / time.Duration(*intervals)
	byClaim := tr.ReportsByClaim()
	jobs := make(map[string]*job, len(byClaim))
	taskChunk := make(map[string]int) // task ID -> chunk index
	rejected := 0
	for claim, reports := range byClaim {
		chunks := dtm.SplitReports(reports, *tasksPer)
		payloads, intervals, err := dtm.EncodeTasks(chunks, tr.Start, width)
		if err != nil {
			return err
		}
		// One distributed trace per TD job: the root span's context rides
		// on every task, so the workers' stage spans land in the same
		// timeline (nil tracer = nil span = no tracing, same protocol).
		jobSpan := tracer.NewTrace("job " + string(claim))
		// Admission control (enabled by -admission-rate): refuse jobs the
		// capacity model predicts past their -deadline instead of letting
		// them queue up and miss anyway. The gate logs the rejection with
		// its errtrace return path.
		d := master.AdmitJob(string(claim), jobSpan.TraceID(), len(chunks), *deadline)
		if !d.Admit {
			jobSpan.SetAttr("admission", "rejected")
			jobSpan.Finish()
			rejected++
			fmt.Fprintf(os.Stderr, "sstd-master: job %s rejected: %v\n", claim, d.Err)
			continue
		}
		jobs[string(claim)] = &job{outputs: make([][]byte, len(chunks)), intervals: intervals, span: jobSpan}
		var tc *workqueue.TraceContext
		if id := jobSpan.TraceID(); id != "" {
			tc = &workqueue.TraceContext{TraceID: id, ParentSpanID: jobSpan.SpanID()}
		}
		for i, payload := range payloads {
			task := workqueue.Task{
				ID:      fmt.Sprintf("%s/%d", claim, i),
				JobID:   string(claim),
				Payload: payload,
				Span:    jobSpan.SpanID(),
				Trace:   tc,
			}
			taskChunk[task.ID] = i
			if err := master.Submit(task); err != nil {
				return err
			}
		}
		if d.Shed {
			// Degraded lane: near-zero scheduler weight, so the shed job
			// only drains on capacity the admitted jobs leave idle.
			master.SetJobPriority(string(claim), 0.001)
		}
	}
	admitted := len(jobs)
	fmt.Printf("submitted %d tasks across %d jobs", len(taskChunk), admitted)
	if rejected > 0 {
		fmt.Printf(" (%d jobs rejected by admission control)", rejected)
	}
	fmt.Println()

	// Collect each job's task outputs and, once the last one is in, fold
	// them in chunk order and decode: the printed truth does not depend on
	// which worker answered first.
	dec, err := core.NewDecoder(core.DefaultDecoderConfig())
	if err != nil {
		return err
	}
	start := time.Now()
	finished := 0
	for finished < admitted {
		res, ok := <-master.Results()
		if !ok {
			return fmt.Errorf("results closed with %d/%d jobs finished", finished, admitted)
		}
		j := jobs[res.JobID]
		if res.Err != "" {
			// A task that exhausted its retries (quarantined) or failed
			// terminally costs its chunk of data, not the run: the job
			// completes degraded from the partial sums, matching the DTM's
			// graceful-degradation policy.
			if *maxRetries == 0 {
				return fmt.Errorf("task failed at stage %q: %s", res.ErrStage, res.Err)
			}
			fmt.Fprintf(os.Stderr, "sstd-master: task %s failed (stage %q): %s\n", res.TaskID, res.ErrStage, res.Err)
			j.failed++
		} else {
			j.outputs[taskChunk[res.TaskID]] = res.Output
		}
		j.done++
		if j.done == len(j.outputs) {
			finished++
			j.span.Finish()
			sums, err := dtm.FoldOutputs(j.outputs, j.intervals)
			if err != nil {
				return fmt.Errorf("job %s: %w", res.JobID, err)
			}
			truth, err := dec.Decode(dtm.WindowedSeries(sums, *window))
			if err != nil {
				return fmt.Errorf("decode %s: %w", res.JobID, err)
			}
			trueCount := 0
			for _, v := range truth {
				if v == socialsensing.True {
					trueCount++
				}
			}
			degraded := ""
			if j.failed > 0 {
				degraded = fmt.Sprintf("  DEGRADED (%d/%d tasks lost)", j.failed, len(j.outputs))
			}
			fmt.Printf("job %-28s done: %3d intervals, true in %3d%s\n", res.JobID, len(truth), trueCount, degraded)
		}
	}
	fmt.Printf("all %d jobs finished in %s across %d workers\n",
		admitted, time.Since(start).Round(time.Millisecond), master.WorkerCount())
	for _, h := range master.ClusterHealth() {
		flag := ""
		if h.Straggler {
			flag = "  STRAGGLER"
		}
		fmt.Printf("  worker %-20s %-8s tasks=%-4d exec=%6.1fms rate=%5.2f/s%s\n",
			h.ID, h.State, h.TasksCompleted, h.EWMAExecMs, h.TasksPerSec, flag)
	}
	// Flush the final control tick before teardown: the run usually ends
	// between sampler ticks, and without this the artifact would miss the
	// end state (or, for a run shorter than one tick, hold no rows at all).
	if recorder != nil {
		close(samplerStop)
		<-samplerDone
		recordWorkerTick(recorder, master)
	}
	cancel()
	master.Shutdown()
	if *controlOut != "" {
		if err := obs.WriteArtifactFile(*controlOut, metrics, recorder); err != nil {
			return fmt.Errorf("write control artifact %s: %w", *controlOut, err)
		}
		fmt.Printf("wrote control artifact to %s (%d worker samples)\n", *controlOut, len(recorder.WorkerSamples()))
	}
	if *traceOut != "" {
		// Shutdown first: the workers' final span flush (their last send
		// spans) arrives before the connections close, so the export is
		// complete.
		if err := tracer.WriteChromeTraceFile(*traceOut); err != nil {
			return fmt.Errorf("write trace %s: %w", *traceOut, err)
		}
		fmt.Printf("wrote Chrome trace to %s (%d spans)\n", *traceOut, tracer.Len())
	}
	if flightRec != nil {
		// Let a trip near shutdown land its deep-dive file before exit.
		flightRec.Wait()
		for _, d := range flightRec.Dumps() {
			fmt.Printf("flight recorder deep dive: %s (%s: %d events, %d spans)\n",
				d.Path, d.Trigger, d.Events, d.Spans)
		}
	}
	return nil
}

// recordWorkerTick appends one control tick of per-worker health rows
// (observed EWMA throughput, exec and transfer times, clock skew) to the
// recorder. The standalone master has no WCET model, so the prediction
// columns stay zero; the loadgen harness fills those in its capacity fit.
func recordWorkerTick(rec *obs.ControlRecorder, master *workqueue.Master) {
	rec.BeginTick()
	now := time.Now()
	for _, h := range master.ClusterHealth() {
		if h.State == workqueue.WorkerDead {
			continue
		}
		rec.RecordWorker(obs.WorkerSample{
			Time:               now,
			Worker:             h.ID,
			State:              string(h.State),
			TasksPerSec:        h.TasksPerSec,
			ObservedExecMs:     h.EWMAExecMs,
			MeasuredTransferMs: h.EWMATransferMs,
			ClockSkewMs:        h.ClockSkewMs,
			Straggler:          h.Straggler,
		})
	}
}

func loadTrace(in, profile string, scale float64, seed int64) (*socialsensing.Trace, error) {
	if in != "" {
		return traceio.Load(in)
	}
	var prof tracegen.Profile
	switch profile {
	case "boston":
		prof = tracegen.BostonBombing()
	case "paris":
		prof = tracegen.ParisShooting()
	case "football":
		prof = tracegen.CollegeFootball()
	default:
		return nil, fmt.Errorf("unknown profile %q", profile)
	}
	g, err := tracegen.New(prof, seed)
	if err != nil {
		return nil, err
	}
	return g.Generate(scale)
}
