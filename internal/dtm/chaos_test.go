package dtm

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/chaos"
	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/workqueue"
)

// poolWrapper returns a Config.WrapConn hook: each spawned worker's pipe
// pair is wrapped on both ends under paired stream names ("pair-N/master"
// carries master→worker frames, "pair-N/worker" the reverse), so both
// directions follow the plan.
func poolWrapper(in *chaos.Injector) func(master, worker net.Conn) (net.Conn, net.Conn) {
	var n atomic.Uint64
	return func(master, worker net.Conn) (net.Conn, net.Conn) {
		i := n.Add(1) - 1
		return in.WrapConn(fmt.Sprintf("pair-%d/master", i), master),
			in.WrapConn(fmt.Sprintf("pair-%d/worker", i), worker)
	}
}

// injected totals the faults an injector built on reg has counted.
func injected(reg *obs.Registry) int64 {
	var n int64
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "chaos_injected_total") {
			n += v
		}
	}
	return n
}

// TestDecodedTruthIdenticalUnderChaos is acceptance criterion (d): the
// decoded truth sequence of a cluster running under injected drops,
// delays and clock skew must be bit-identical to the fault-free run.
// Losses only cost retries; the per-task sum merge is arrival-order
// independent, so recovered execution changes nothing.
func TestDecodedTruthIdenticalUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos equivalence skipped in -short mode")
	}
	base := DefaultConfig(origin())
	base.ACS.WindowIntervals = 3
	base.TasksPerJob = 6
	base.Workers = 3
	base.heartbeat = 5 * time.Millisecond
	reports := flipReports("c1", 40, 20, 6, 0.1, 7)

	run := func(cfg Config) JobResult {
		t.Helper()
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Start(context.Background())
		defer m.Close()
		if err := m.SubmitJob("c1", reports, 0); err != nil {
			t.Fatal(err)
		}
		return drain(t, m, 1)[0]
	}

	clean := run(base)
	if clean.Err != nil {
		t.Fatal(clean.Err)
	}

	faulty := base
	faulty.TaskTimeout = 300 * time.Millisecond
	faulty.MaxTaskRetries = 12
	faulty.requeueBackoff = workqueue.BackoffConfig{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond}
	injReg := obs.NewRegistry()
	inj := chaos.New(chaos.Spec{
		Seed:     21,
		Drop:     0.10,
		Delay:    0.10,
		DelayMin: time.Millisecond,
		DelayMax: 5 * time.Millisecond,
		SkewNs:   int64(200 * time.Millisecond),
	}, injReg, nil)
	faulty.WrapConn = poolWrapper(inj)

	chaotic := run(faulty)
	if chaotic.Err != nil {
		t.Fatal(chaotic.Err)
	}
	if chaotic.Degraded {
		t.Fatalf("drops/delays/skew alone must be recoverable, got Degraded with %d failed tasks", chaotic.FailedTasks)
	}
	if injected(injReg) == 0 {
		t.Fatal("no faults injected — equivalence trivially holds")
	}
	if len(clean.Estimates) != len(chaotic.Estimates) {
		t.Fatalf("estimate length diverged: %d vs %d", len(clean.Estimates), len(chaotic.Estimates))
	}
	for i := range clean.Estimates {
		if clean.Estimates[i].Value != chaotic.Estimates[i].Value ||
			!clean.Estimates[i].Start.Equal(chaotic.Estimates[i].Start) {
			t.Fatalf("estimate %d diverged under chaos: %+v vs %+v",
				i, clean.Estimates[i], chaotic.Estimates[i])
		}
	}
}

// TestDegradedJobCompletion checks graceful degradation: a job with
// permanently failing tasks still completes — decoded from the partial
// sums and tagged Degraded — instead of stalling the manager.
func TestDegradedJobCompletion(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	cfg.TasksPerJob = 6
	cfg.Workers = 2
	cfg.Metrics, cfg.Tracer = obs.NewRegistry(), obs.NewTracer(64)
	// The first two executor invocations fail outright (scripted), so
	// exactly two tasks are lost; the other four decode.
	inj := chaos.New(chaos.Spec{
		Script: []chaos.ScriptedFault{{Fault: chaos.FaultFail, From: 0, To: 2}},
	}, nil, nil)
	cfg.WrapExec = func(exec workqueue.Executor) workqueue.Executor {
		return inj.WrapExec("pool-exec", exec, nil)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("c1", flipReports("c1", 40, 20, 6, 0.1, 7), 0); err != nil {
		t.Fatal(err)
	}
	res := drain(t, m, 1)[0]
	if res.Err != nil {
		t.Fatalf("degraded job must not error: %v", res.Err)
	}
	if !res.Degraded || res.FailedTasks != 2 {
		t.Fatalf("want Degraded with 2 failed tasks, got degraded=%t failed=%d", res.Degraded, res.FailedTasks)
	}
	if len(res.Estimates) == 0 {
		t.Fatal("degraded job produced no estimates at all")
	}
	checkJobCounters(t, cfg.Metrics, 1, 1, 0, 1)
	if a := rootAttrs(t, cfg.Tracer, "c1"); a["degraded"] != "2/6 tasks lost" || a["reports"] != "240" {
		t.Errorf("root span attributes %v, want degraded=2/6 tasks lost and reports=240", a)
	}
}

// TestHungTaskDegradesJob hangs the executor forever on one task and
// checks the exec-timeout path cancels it and the job completes
// Degraded — a hung worker costs one task's data, not the manager.
func TestHungTaskDegradesJob(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	cfg.TasksPerJob = 4
	cfg.Workers = 2
	cfg.heartbeat = 5 * time.Millisecond
	cfg.TaskTimeout = 500 * time.Millisecond
	cfg.execTimeout = 50 * time.Millisecond
	poison := make(chan struct{})
	cfg.WrapExec = func(exec workqueue.Executor) workqueue.Executor {
		return func(ctx context.Context, payload []byte) ([]byte, error) {
			// The first chunk of c1 (task c1/0) carries the earliest
			// reports; detect it by content and hang until cancelled.
			if containsEarliest(payload) {
				select {
				case <-poison:
				case <-ctx.Done():
				}
				return nil, ctx.Err()
			}
			return exec(ctx, payload)
		}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	defer close(poison)
	if err := m.SubmitJob("c1", flipReports("c1", 40, 20, 6, 0.1, 7), 0); err != nil {
		t.Fatal(err)
	}
	res := drain(t, m, 1)[0]
	if res.Err != nil {
		t.Fatalf("job must degrade, not fail: %v", res.Err)
	}
	if !res.Degraded || res.FailedTasks == 0 {
		t.Fatalf("want a degraded completion, got degraded=%t failed=%d", res.Degraded, res.FailedTasks)
	}
}

// containsEarliest detects the payload chunk holding the first minute's
// reports: the only one whose interval range starts at the origin.
func containsEarliest(payload []byte) bool {
	task, err := parseTask(payload)
	return err == nil && task.n > 0 && task.base == 0
}
