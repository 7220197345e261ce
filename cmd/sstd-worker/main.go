// Command sstd-worker is a Work Queue worker process: it connects to an
// sstd-master over TCP, pulls TD tasks (chunks of one claim's reports),
// computes partial Aggregated Contribution Score sums and returns them.
// Start as many as the machine allows; the master balances work across all
// connected workers.
//
// While running it heartbeats to the master (so a hung worker is evicted
// rather than stalling the cluster), and every -stats-every-th heartbeat
// carries a telemetry ship of its metrics registry: task counts,
// exec-time histogram, connection byte counters, goroutines and heap. The
// same numbers can be served locally with -telemetry, alongside
// /debug/pprof for on-the-spot profiling. The master alone picks the task
// batch size (its -batch); a lock-step master sends one task per frame.
//
// Usage:
//
//	sstd-worker -master localhost:9123 -id worker-a -telemetry :9200
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
	"github.com/social-sensing/sstd/internal/workqueue"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sstd-worker:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		master     = flag.String("master", "localhost:9123", "master address")
		id         = flag.String("id", "", "worker id (defaults to host-pid)")
		heartbeat  = flag.Duration("heartbeat", time.Second, "liveness ping interval to the master (0 disables)")
		statsEvery = flag.Int("stats-every", 5, "every N-th heartbeat carries a telemetry ship")
		telemetry  = flag.String("telemetry", "", "optional address serving /metrics, /trace, /logs and /debug/pprof (e.g. :9200)")
		logLevel   = flag.String("log-level", "info", "structured log threshold: debug, info, warn or error")

		execTimeout = flag.Duration("exec-timeout", 0, "per-task execution budget; a task past it is cancelled and reported failed (0 = none)")
		reconnects  = flag.Int("reconnects", 0, "reconnect with backoff after connection loss, giving up after this many consecutive failed attempts (0 = exit on first loss)")

		chaosSpec = flag.String("chaos-spec", "", "TEST ONLY: fault-injection spec, e.g. drop=0.3,corrupt=0.05,delay=0.1:1ms-5ms (see internal/chaos)")
		chaosSeed = flag.Int64("chaos-seed", 0, "TEST ONLY: seed for the fault-injection schedule (overrides any seed in -chaos-spec)")

		flightRecord = flag.String("flight-record", "", "enable the always-on flight recorder; deep-dive trace files land in this directory when an SLO trigger fires")
		flightDumpOn = flag.String("flight-dump-on", "all", "comma-separated triggers that dump a deep dive: deadline-miss, straggler, admission, quarantine, manual (or all)")

		mutexprofile = flag.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
		blockprofile = flag.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := obs.StartProfilingWith(obs.ProfileConfig{
		MutexPath: *mutexprofile,
		BlockPath: *blockprofile,
	})
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "sstd-worker: profile:", perr)
		}
	}()

	workerID := *id
	if workerID == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		workerID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger := obs.NewLogger(os.Stderr, obs.ParseLogLevel(*logLevel), 0)
	var (
		metrics *obs.Registry
		tracer  *obs.Tracer
	)
	if *telemetry != "" || *flightRecord != "" {
		metrics = obs.NewRegistry()
		tracer = obs.NewTracer(0)
		tracer.Instrument(metrics)
	}
	// Install the recorder before the worker builds its codec: probe
	// rings bind at component construction.
	flightRec, err := flightrec.EnableCLI(*flightRecord, *flightDumpOn, tracer, metrics, logger)
	if err != nil {
		return err
	}
	if flightRec != nil {
		defer flightRec.Wait()
		fmt.Printf("flight recorder armed: deep dives to %s on [%s]\n", *flightRecord, *flightDumpOn)
	}
	if *telemetry != "" {
		mux := http.NewServeMux()
		mux.Handle("/", obs.Handler(metrics, tracer, logger))
		if flightRec != nil {
			mux.Handle("/debug/flightrec", flightRec.Handler())
			mux.Handle("/debug/flightrec/", flightRec.Handler())
		}
		telemetrySrv := &http.Server{Addr: *telemetry, Handler: mux}
		go func() {
			if err := telemetrySrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "sstd-worker: telemetry endpoint:", err)
			}
		}()
		defer func() { _ = telemetrySrv.Close() }()
		fmt.Printf("telemetry endpoint on %s (/metrics, /trace, /logs, /debug/pprof, /debug/flightrec)\n", *telemetry)
	}

	w := &workqueue.Worker{
		ID: workerID,
		// The SSTD preprocessing step: partial per-interval contribution
		// score sums for one chunk of a claim's reports.
		Exec:           dtm.ExecuteTask,
		HeartbeatEvery: *heartbeat,
		StatsEvery:     *statsEvery,
		ExecTimeout:    *execTimeout,
		MaxReconnects:  *reconnects,
		Metrics:        metrics,
		Tracer:         tracer,
		Logger:         logger,
		// With a recorder armed the worker answers the master's FreezeRings
		// broadcasts (and forwards its own trips to the master), so this
		// host's probe events land on a lane of the master's deep dives.
		FlightRec: flightRec,
	}
	if *chaosSpec != "" || *chaosSeed != 0 {
		spec, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			return fmt.Errorf("-chaos-spec: %w", err)
		}
		if *chaosSeed != 0 {
			spec.Seed = *chaosSeed
		}
		inj := chaos.New(spec, metrics, tracer)
		w.WrapConn = func(c net.Conn) net.Conn { return inj.WrapConn("worker/"+workerID, c) }
		w.Exec = inj.WrapExec("exec/"+workerID, dtm.ExecuteTask, nil)
		fmt.Printf("CHAOS: fault injection armed (seed %d) — test use only\n", spec.Seed)
	}
	fmt.Printf("worker %s connecting to %s\n", workerID, *master)
	if *reconnects > 0 {
		err = w.Redial(ctx, *master)
	} else {
		err = w.Dial(ctx, *master)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	fmt.Println("worker done")
	return nil
}
