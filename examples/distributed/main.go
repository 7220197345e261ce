// Distributed: the Dynamic Task Manager with PID feedback control. A
// Paris-Shooting-style trace is processed as per-claim TD jobs with soft
// deadlines on an elastic in-process worker pool; the PID loop watches job
// progress, re-prioritizes late jobs and resizes the pool. The example
// prints each job's outcome and how the pool adapted.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/social-sensing/sstd"
)

func main() {
	gen, err := sstd.NewTraceGenerator(sstd.ParisShootingProfile(), 9)
	if err != nil {
		log.Fatal(err)
	}
	trace, err := gen.Generate(0.005)
	if err != nil {
		log.Fatal(err)
	}

	cfg := sstd.DefaultManagerConfig(trace.Start)
	cfg.ACS.Interval = trace.Duration() / 80
	cfg.ACS.WindowIntervals = 3
	cfg.Workers = 2 // start small; the controller may grow the pool
	cfg.TasksPerJob = 4
	cfg.EnableControl = true
	cfg.SampleEvery = 20 * time.Millisecond
	// Emulate preprocessing cost: every task takes 5 ms longer.
	cfg.WrapExec = func(exec sstd.TaskExecutor) sstd.TaskExecutor {
		return func(ctx context.Context, payload []byte) ([]byte, error) {
			time.Sleep(5 * time.Millisecond)
			return exec(ctx, payload)
		}
	}

	// Telemetry: metrics + per-tick control-loop samples, summarized below.
	metrics := sstd.NewMetricsRegistry()
	control := sstd.NewControlRecorder(0)
	cfg.Metrics = metrics
	cfg.ControlLog = control

	manager, err := sstd.NewManager(cfg)
	if err != nil {
		log.Fatal(err)
	}
	manager.Start(context.Background())
	defer manager.Close()

	byClaim := trace.ReportsByClaim()
	const deadline = 400 * time.Millisecond
	fmt.Printf("submitting %d TD jobs (%d reports) with %s deadlines on %d workers\n",
		len(byClaim), len(trace.Reports), deadline, cfg.Workers)

	submitted := 0
	for claim, reports := range byClaim {
		if err := manager.SubmitJob(claim, reports, deadline); err != nil {
			log.Fatal(err)
		}
		submitted++
	}

	met := 0
	for i := 0; i < submitted; i++ {
		res := <-manager.Results()
		if res.Err != nil {
			log.Fatalf("job %s: %v", res.Claim, res.Err)
		}
		status := "MISSED"
		if res.MetDeadline {
			status = "met"
			met++
		}
		fmt.Printf("job %-28s finished in %8s  deadline %s  intervals=%d\n",
			res.Claim, res.Elapsed.Round(time.Millisecond), status, len(res.Estimates))
	}
	fmt.Printf("\n%d/%d deadlines met; pool ended at %d workers (started at %d)\n",
		met, submitted, manager.Workers(), cfg.Workers)

	// Per-worker health summary from the master's cluster registry: every
	// worker the run touched (including ones released by pool shrinks),
	// with its liveness state, task count and smoothed exec time.
	fmt.Println("\nworker            state    tasks  exec(ewma)  rate")
	for _, h := range manager.ClusterHealth() {
		flag := ""
		if h.Straggler {
			flag = "  STRAGGLER"
		}
		fmt.Printf("%-17s %-8s %5d  %8.2fms  %4.1f/s%s\n",
			h.ID, h.State, h.TasksCompleted, h.EWMAExecMs, h.TasksPerSec, flag)
	}

	// One-line telemetry summary: deadline hit rate from the counters and
	// job latency quantiles from the dtm_job_latency_ms histogram.
	snap := metrics.Snapshot()
	hit := snap.Counters["dtm_deadline_hit_total"]
	miss := snap.Counters["dtm_deadline_miss_total"]
	lat := snap.Histograms["dtm_job_latency_ms"]
	fmt.Printf("telemetry: deadline hit rate %.0f%% (%d/%d), job latency p50=%.0fms p99=%.0fms, %d PID ticks recorded\n",
		100*float64(hit)/float64(hit+miss), hit, hit+miss, lat.P50, lat.P99, control.Len())
}
