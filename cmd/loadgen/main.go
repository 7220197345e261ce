// Command loadgen is the closed-loop load harness: it replays tracegen
// streams against an in-process master/worker cluster (full wire protocol
// over net.Pipe) at configurable arrival rates, sweeps the offered load
// per worker-pool size until the deadline-miss rate crosses a threshold,
// fits the capacity model against the paper's Eq. 10-12 WCET predictions,
// and validates the fitted model as an admission gate at 1.5x the knee.
//
//	loadgen -trace boston -scale 0.05 -workers 1,2,4 -out BENCH_load.json
//
// The -duration and -max-rate flags are hard safety caps: the sweep stops
// at whichever it hits first, marking the report truncated.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/social-sensing/sstd/internal/control"
	"github.com/social-sensing/sstd/internal/loadgen"
	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
	"github.com/social-sensing/sstd/internal/obs/slo"
	"github.com/social-sensing/sstd/internal/obs/tsdb"
	"github.com/social-sensing/sstd/internal/traceio"
	"github.com/social-sensing/sstd/internal/workqueue"
)

func main() {
	var (
		in      = flag.String("in", "", "trace file (from the tracegen command)")
		trace   = flag.String("trace", "boston", "built-in profile when -in is empty: boston|paris|football")
		scale   = flag.Float64("scale", 0.05, "volume scale for built-in profiles")
		seed    = flag.Int64("seed", 42, "seed for trace synthesis, arrivals and scheduling")
		workers = flag.String("workers", "1,2", "comma-separated worker-pool sizes to sweep")
		mode    = flag.String("mode", "open", "load shape: open (Poisson arrivals) | closed (fixed concurrency)")

		startRate  = flag.Float64("start-rate", 2, "first offered load (jobs/s in open mode, concurrency in closed)")
		rateFactor = flag.Float64("rate-factor", 2, "geometric ramp between steps")
		maxRate    = flag.Float64("max-rate", 256, "safety cap: stop the ramp at this offered load")
		duration   = flag.Duration("duration", 60*time.Second, "safety cap: total sweep wall-time budget")
		step       = flag.Duration("step", 2*time.Second, "measurement window per offered-load step")

		deadline      = flag.Duration("deadline", 500*time.Millisecond, "per-job completion budget")
		missThreshold = flag.Float64("miss-threshold", 0.5, "deadline-miss fraction that defines the knee")
		tasksPerJob   = flag.Int("tasks-per-job", 4, "tasks each TD job is split into")
		workDelay     = flag.Duration("work-delay", 0, "artificial per-report execution cost on workers")
		batch         = flag.Int("batch", 0, "master task-batch size: coalesce up to N tasks per wire frame with a pipelined ack window (0 = lock-step single-task frames)")
		admitFactor   = flag.Float64("admit-factor", 1.5, "admission validation offered load as a multiple of the knee rate (<= 0 skips)")

		theta1 = flag.Duration("theta1", 10*time.Microsecond, "Eq. 10 per-report execution cost for the WCET comparison")
		theta2 = flag.Duration("theta2", 40*time.Microsecond, "Eq. 11-12 distributed-execution constant")
		initT  = flag.Duration("init-time", time.Millisecond, "Eq. 10 task init time TI")

		schedShards = flag.Int("sched-shards", 0, "scheduler shard count on each step's master (0 = GOMAXPROCS)")

		out   = flag.String("out", "BENCH_load.json", "capacity report output path")
		quiet = flag.Bool("quiet", false, "suppress per-step progress lines")

		mutexprofile = flag.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
		blockprofile = flag.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")

		flightRecord = flag.String("flight-record", "", "enable the always-on flight recorder; deep-dive trace files land in this directory when an SLO trigger fires")
		flightDumpOn = flag.String("flight-dump-on", "all", "comma-separated triggers that dump a deep dive: deadline-miss, straggler, admission, quarantine, manual (or all)")

		telemetry = flag.String("telemetry", "", "optional address serving the cluster telemetry plane during the sweep: /metrics, /query (retained time-series), /slo (error budgets)")
		linger    = flag.Duration("linger", 0, "keep the -telemetry endpoint up this long after the sweep so sstdctl can inspect the retained store")
		sloTarget = flag.Float64("slo-target", 0.9, "deadline-hit-rate objective for the /slo error budget (needs -telemetry)")
		sloFast   = flag.Duration("slo-fast", 5*time.Minute, "fast burn-rate window")
		sloSlow   = flag.Duration("slo-slow", time.Hour, "slow burn-rate window")
		sloBurn   = flag.Float64("slo-burn", 14.4, "burn-rate multiple that fires the alert (both windows)")
	)
	flag.Parse()

	stopProf, err := obs.StartProfilingWith(obs.ProfileConfig{
		MutexPath: *mutexprofile,
		BlockPath: *blockprofile,
	})
	if err != nil {
		fatal(err)
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "loadgen: profile:", perr)
		}
	}()

	// Install before the sweep builds its clusters: probe rings bind at
	// component construction.
	flightRec, err := flightrec.EnableCLI(*flightRecord, *flightDumpOn, nil, nil,
		obs.NewLogger(os.Stderr, obs.LevelWarn, 0))
	if err != nil {
		fatal(err)
	}
	if flightRec != nil {
		fmt.Fprintf(os.Stderr, "loadgen: flight recorder armed: deep dives to %s on [%s]\n", *flightRecord, *flightDumpOn)
	}

	tr, err := traceio.LoadOrGenerate(*in, *trace, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	pools, err := parseWorkers(*workers)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The telemetry plane: one registry shared by every step's cluster (so
	// the dtm deadline counters accumulate across the sweep), a retained
	// time-series store fed by worker TelemetryShip frames plus a periodic
	// master self-scrape, and an SLO engine burning the deadline-hit-rate
	// error budget. Its firing edge trips the flight recorder (when armed),
	// which cascades into a cross-host FreezeRings collection on the
	// step's live cluster.
	var (
		reg       *obs.Registry
		store     *tsdb.Store
		sloEngine *slo.Engine
	)
	planeStop := make(chan struct{})
	defer close(planeStop)
	if *telemetry != "" {
		reg = obs.NewRegistry()
		store = tsdb.New(0)
		sloEngine = slo.New(slo.Config{Source: reg, Metrics: reg}, slo.Objective{
			Name: "deadline", Good: "dtm_deadline_hit_total", Bad: "dtm_deadline_miss_total",
			Target: *sloTarget, FastWindow: *sloFast, SlowWindow: *sloSlow, BurnThreshold: *sloBurn,
		})
		go sloEngine.Run(planeStop, 200*time.Millisecond)
		go func() {
			t := time.NewTicker(500 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-planeStop:
					return
				case now := <-t.C:
					store.ScrapeRegistry(reg, "master", now)
				}
			}
		}()
		mux := http.NewServeMux()
		mux.Handle("/", obs.Handler(reg, nil, nil))
		mux.Handle("/query", store.Handler())
		mux.Handle("/slo", sloEngine.Handler())
		srv := &http.Server{Addr: *telemetry, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "loadgen: telemetry endpoint:", err)
			}
		}()
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(os.Stderr, "loadgen: telemetry endpoint on %s (/metrics, /query, /slo)\n", *telemetry)
	}

	cfg := loadgen.Config{
		Trace:         tr,
		Workers:       pools,
		Mode:          *mode,
		StartRate:     *startRate,
		RateFactor:    *rateFactor,
		MaxRate:       *maxRate,
		Deadline:      *deadline,
		MissThreshold: *missThreshold,
		StepDuration:  *step,
		Duration:      *duration,
		TasksPerJob:   *tasksPerJob,
		WorkDelay:     *workDelay,
		TaskBatch:     *batch,
		AdmitFactor:   *admitFactor,
		Seed:          *seed,
		SchedShards:   *schedShards,
		WCET: control.WCETModel{
			InitTime: *initT,
			Theta1:   *theta1,
			Theta2:   *theta2,
		},
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
		}
	}
	if *telemetry != "" {
		cfg.Metrics = reg
		cfg.Telemetry = store
		if flightRec != nil {
			// Armed recorder + telemetry plane = cross-host collection: the
			// step's master broadcasts FreezeRings on a trip and merges the
			// workers' frozen rings (each pool worker gets its own recorder,
			// hence its own lane) into one cluster trace in -flight-record.
			cfg.FlightRec = flightRec
			cfg.ClusterDumps = &workqueue.ClusterDumpConfig{Dir: *flightRecord}
			var mu sync.Mutex
			wrecs := map[string]*flightrec.Recorder{}
			cfg.WorkerFlightRec = func(id string) *flightrec.Recorder {
				mu.Lock()
				defer mu.Unlock()
				if r, ok := wrecs[id]; ok {
					return r
				}
				r, err := flightrec.NewRecorder(flightrec.Config{})
				if err != nil {
					return nil
				}
				wrecs[id] = r
				return r
			}
		}
	}

	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	if err := rep.WriteFile(*out); err != nil {
		fatal(err)
	}
	printCapacityTable(rep)
	fmt.Printf("loadgen: report written to %s\n", *out)
	if *telemetry != "" && *linger > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: lingering %s on %s for inspection (interrupt to exit)\n", *linger, *telemetry)
		select {
		case <-ctx.Done():
		case <-time.After(*linger):
		}
	}
	if flightRec != nil {
		flightRec.Wait()
		for _, d := range flightRec.Dumps() {
			fmt.Printf("loadgen: flight recorder deep dive: %s (%s: %d events, %d spans)\n",
				d.Path, d.Trigger, d.Events, d.Spans)
		}
	}
}

// printCapacityTable renders the knee per pool size and the fitted model.
func printCapacityTable(rep *loadgen.Report) {
	fmt.Printf("capacity (%s mode, deadline %dms, miss threshold %.0f%%):\n",
		rep.Mode, rep.DeadlineMs, rep.MissThreshold*100)
	fmt.Printf("  %-8s %-10s %-9s %-10s %-10s %-8s %-8s\n",
		"workers", "knee-rate", "crossed", "jobs/s", "tasks/s", "miss%", "p95ms")
	for _, k := range rep.Knees {
		fmt.Printf("  %-8d %-10.1f %-9t %-10.2f %-10.2f %-8.1f %-8.1f\n",
			k.Workers, k.Rate, k.Crossed, k.JobsPerSec, k.TasksPerSec, k.MissRate*100, k.P95Ms)
	}
	f := rep.Fit
	fmt.Printf("  fit: %.2f tasks/s/worker (%.2f jobs/s/worker, R²=%.3f)\n",
		f.PerWorkerTasksPerSec, f.PerWorkerJobsPerSec, f.RSquared)
	fmt.Printf("  WCET Eq.10 predicts %.2f tasks/s/worker at D=%.1f reports/task (divergence %+.1f%%); effective θ2=%.1fµs/report\n",
		f.PredictedTasksPerSec, f.MeanTaskReports, f.DivergencePct, f.EffectiveTheta2Us)
	if av := rep.Admission; av != nil {
		fmt.Printf("  admission @ %.1f (%.1f× knee, %d workers): %d admitted miss %.0f%%, %d rejected (%d errtraced), held=%t\n",
			av.OfferedRate, av.AdmitFactor, av.Workers, av.Point.Submitted,
			av.AcceptedMissRate*100, av.Point.Rejected, av.RejectionTraces, av.Held)
	}
	if rep.Truncated {
		fmt.Println("  note: sweep truncated by -duration/-max-rate safety caps; knees marked crossed=false are lower bounds")
	}
}

func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -workers entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-workers is empty")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
