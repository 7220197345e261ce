package dtm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/chaos"
	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/workqueue"
)

// TestRecycledBuffersUnderChaos runs jobs side by side, so a buffer one job
// puts back is soon another's, first clean and then under dropped frames:
// every payload an executor is handed must be byte for byte one the jobs'
// reports encode to, every truth must be the clean run's, and a job whose
// task was sent twice keeps its buffer — so under faults that requeued
// tasks, fewer jobs recycle than ran.
func TestRecycledBuffersUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos recycling skipped in -short mode")
	}
	const jobs = 8
	base := DefaultConfig(origin())
	base.ACS.WindowIntervals = 3
	base.TasksPerJob = 4
	base.Workers = 3
	base.heartbeat = 5 * time.Millisecond
	reports := make([][]socialsensing.Report, jobs)
	// want holds every payload the jobs may send: the scatter tasks and
	// the decode task each job's outputs merge into.
	want := make(map[string]bool)
	for j := range reports {
		claim := socialsensing.ClaimID(fmt.Sprintf("c%d", j))
		reports[j] = flipReports(claim, 40+j, 20, 6, 0.1, int64(j))
		chunks := splitReports(reports[j], base.TasksPerJob)
		payloads, intervals, err := encodeJob(chunks, origin(), base.ACS.Interval)
		if err != nil {
			t.Fatal(err)
		}
		outputs := make([][]byte, len(payloads))
		for i, p := range payloads {
			want[string(p)] = true
			if outputs[i], err = ExecuteTask(context.Background(), p); err != nil {
				t.Fatal(err)
			}
		}
		decode, _ := mergeJob(t, appendDecodeHeader(nil, base.ACS.WindowIntervals, base.Decoder), outputs, intervals, inOrder(len(outputs)))
		want[string(decode)] = true
	}

	run := func(cfg Config) (truths map[socialsensing.ClaimID][]core.Estimate, recycled int64) {
		t.Helper()
		var mu sync.Mutex
		var foreign []string
		cfg.WrapExec = func(exec workqueue.Executor) workqueue.Executor {
			return func(ctx context.Context, p []byte) ([]byte, error) {
				if !want[string(p)] {
					mu.Lock()
					foreign = append(foreign, fmt.Sprintf("%x", p[:min(len(p), 16)]))
					mu.Unlock()
				}
				return exec(ctx, p)
			}
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Start(context.Background())
		for j, r := range reports {
			if err := m.SubmitJob(socialsensing.ClaimID(fmt.Sprintf("c%d", j)), r, 0); err != nil {
				t.Fatal(err)
			}
		}
		truths = make(map[socialsensing.ClaimID][]core.Estimate)
		for _, res := range drain(t, m, jobs) {
			if res.Err != nil || res.Degraded {
				t.Fatalf("job %s: err=%v degraded=%t", res.Claim, res.Err, res.Degraded)
			}
			truths[res.Claim] = res.Estimates
		}
		m.Close()
		if len(foreign) > 0 {
			t.Fatalf("%d executed payloads are no job's, first %s…", len(foreign), foreign[0])
		}
		return truths, m.recycled.Load()
	}

	clean, recycled := run(base)
	if recycled != jobs {
		t.Fatalf("clean run recycled %d of %d job buffers", recycled, jobs)
	}
	faulty := base
	faulty.TaskTimeout = 300 * time.Millisecond
	faulty.MaxTaskRetries = 12
	faulty.requeueBackoff = workqueue.BackoffConfig{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond}
	faulty.Metrics = obs.NewRegistry()
	inj := chaos.New(chaos.Spec{Seed: 21, Drop: 0.10}, nil, nil)
	faulty.WrapConn = poolWrapper(inj)
	chaotic, recycled := run(faulty)
	retries := faulty.Metrics.Counter("wq_task_retries_total").Value()
	if retries == 0 {
		t.Fatal("no task was requeued: the plan tested nothing")
	}
	if recycled >= jobs {
		t.Errorf("%d requeues, yet all %d jobs recycled their buffers", retries, recycled)
	}
	for claim, est := range clean {
		if fmt.Sprint(est) != fmt.Sprint(chaotic[claim]) {
			t.Errorf("job %s: truth under chaos differs from the clean run", claim)
		}
	}
	t.Logf("%d requeues; %d of %d jobs recycled their buffers", retries, recycled, jobs)
}

// TestRefusedSubmitNeverRecycles: a job whose tasks the master refuses may
// already have some of them queued, and those may still be sent, so its
// buffer stays out of the pool. (A closed master refuses the first task;
// a failure after the first takes the same path.)
func TestRefusedSubmitNeverRecycles(t *testing.T) {
	m, err := New(DefaultConfig(origin()))
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	m.Close()
	if err := m.SubmitJob("late", flipReports("late", 5, 2, 2, 0, 1), 0); err == nil || !strings.Contains(err.Error(), "shut down") {
		t.Fatalf("submit after close: %v, want the master's shutdown error", err)
	}
	if n := m.recycled.Load(); n != 0 {
		t.Errorf("a refused submit recycled %d buffers", n)
	}
}

// TestQuarantinedTaskKeepsItsPayload: a task whose every attempt loses
// its worker is quarantined, and Master.Quarantined shows its payload.
// The job still decodes from its other tasks, and the decode task must
// not be written over the memory that payload lives in.
func TestQuarantinedTaskKeepsItsPayload(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	cfg.TasksPerJob = 4
	cfg.Workers = 1
	cfg.MaxTaskRetries = 1
	cfg.requeueBackoff = workqueue.BackoffConfig{Base: -1}
	var (
		mu   sync.Mutex
		conn net.Conn // the worker side of the live connection
	)
	cfg.WrapConn = func(master, worker net.Conn) (net.Conn, net.Conn) {
		mu.Lock()
		conn = worker
		mu.Unlock()
		return master, worker
	}
	cfg.WrapExec = func(exec workqueue.Executor) workqueue.Executor {
		return func(ctx context.Context, p []byte) ([]byte, error) {
			if containsEarliest(p) {
				// The first chunk kills its worker, as a crash does.
				mu.Lock()
				_ = conn.Close()
				mu.Unlock()
				return nil, errors.New("worker died")
			}
			return exec(ctx, p)
		}
	}
	reports := flipReports("c1", 40, 20, 6, 0.1, 7)
	payloads, _, err := encodeJob(splitReports(reports, cfg.TasksPerJob), origin(), cfg.ACS.Interval)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("c1", reports, 0); err != nil {
		t.Fatal(err)
	}
	if res := drain(t, m, 1)[0]; res.Err != nil || res.FailedTasks != 1 {
		t.Fatalf("job: err=%v, %d failed tasks; want it decoded without its first chunk", res.Err, res.FailedTasks)
	}
	q := m.Master().Quarantined()
	if len(q) != 1 || !bytes.Equal(q[0].Task.Payload, payloads[0]) {
		t.Fatalf("quarantine holds %d tasks; want the first chunk's with its payload intact", len(q))
	}
}

// TestSteadyRunAllocsPerJob is the allocation guard of the submit, exec
// and merge paths: jobs of payload_heavy's shape — ≈6.9k reports on a
// 96-interval grid, four tasks — through an in-process pool, four in
// flight, allocate under a bound per job set from the ≈18 KB measured
// when every job's payloads moved into one pooled buffer (≈84 KB before).
func TestSteadyRunAllocsPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops what it is given at random")
	}
	const bound = 28 << 10
	cfg := DefaultConfig(origin())
	cfg.Workers = 2
	reports := flipReports("c", 96, 48, 72, 0.1, 1)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	// Closed loop: submit job k once job k-4 is back.
	submit := func(k int) {
		if err := m.SubmitJob(socialsensing.ClaimID(fmt.Sprintf("c%d", k)), reports, 0); err != nil {
			t.Fatal(err)
		}
	}
	steady := func(from, to int) {
		for k := from; k < to; k++ {
			if k >= from+4 {
				if res := drain(t, m, 1)[0]; res.Err != nil {
					t.Fatal(res.Err)
				}
			}
			submit(k)
		}
		drain(t, m, 4)
	}
	steady(0, 100) // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const jobs = 400
	steady(100, 100+jobs)
	runtime.ReadMemStats(&after)
	perJob := float64(after.TotalAlloc-before.TotalAlloc) / jobs
	if perJob > bound {
		t.Errorf("%.0f bytes allocated per job, bound %d", perJob, bound)
	}
	t.Logf("%.0f bytes allocated per job of %d reports", perJob, len(reports))
}
