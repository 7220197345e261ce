// Command sstd-worker is a Work Queue worker process: it connects to an
// sstd-master over TCP, pulls TD tasks (chunks of one claim's reports),
// computes partial Aggregated Contribution Score sums and returns them.
// Start as many as the machine allows; the master balances work across all
// connected workers.
//
// While running it heartbeats to the master (so a hung worker is evicted
// rather than stalling the cluster), and every fifth heartbeat carries a
// telemetry ship of its metrics registry: task counts,
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

func run() (runErr error) {
	var (
		master    = flag.String("master", "localhost:9123", "master address")
		id        = flag.String("id", "", "worker id (defaults to host-pid)")
		heartbeat = flag.Duration("heartbeat", time.Second, "liveness ping interval to the master (0 disables)")

		execTimeout = flag.Duration("exec-timeout", 0, "per-task execution budget; a task past it is cancelled and reported failed (0 = none)")
		reconnects  = flag.Int("reconnects", 0, "reconnect with backoff after connection loss, giving up after this many consecutive failed attempts (0 = exit on first loss)")

		chaosSpec = flag.String("chaos-spec", "", "TEST ONLY: fault-injection spec, e.g. drop=0.3,corrupt=0.05,delay=0.1:1ms-5ms,seed=7 (see internal/chaos)")
	)
	cli := obs.NewCLI(flag.CommandLine, true)
	flag.Parse()
	if err := cli.Start(); err != nil {
		return err
	}
	defer func() { runErr = errors.Join(runErr, cli.Close()) }()

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

	logger := cli.Logger()
	var (
		metrics *obs.Registry
		tracer  *obs.Tracer
	)
	if cli.Telemetry != "" || cli.FlightRecord != "" {
		metrics = obs.NewRegistry()
		tracer = obs.NewTracer(0)
		tracer.Instrument(metrics)
	}
	// Install the recorder before the worker builds its codec: probe
	// rings bind at component construction.
	flightRec, err := flightrec.EnableCLI(cli.FlightRecord, tracer, metrics, logger)
	if err != nil {
		return err
	}
	if flightRec != nil {
		defer flightRec.Wait()
		fmt.Printf("flight recorder armed: deep dives to %s on every trigger\n", cli.FlightRecord)
	}
	if cli.Telemetry != "" {
		mux := http.NewServeMux()
		mux.Handle("/", obs.Handler(metrics, tracer, logger))
		if flightRec != nil {
			mux.Handle("/debug/flightrec", flightRec.Handler())
			mux.Handle("/debug/flightrec/", flightRec.Handler())
		}
		if err := cli.Serve(mux); err != nil {
			return err
		}
		fmt.Printf("telemetry endpoint on %s (/metrics, /trace, /logs, /debug/pprof, /debug/flightrec)\n", cli.Telemetry)
	}

	w := &workqueue.Worker{
		ID: workerID,
		// The SSTD preprocessing step: partial per-interval contribution
		// score sums for one chunk of a claim's reports.
		Exec:           dtm.ExecuteTask,
		HeartbeatEvery: *heartbeat,
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
	if *chaosSpec != "" {
		spec, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			return fmt.Errorf("-chaos-spec: %w", err)
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
