package workqueue

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
)

func TestAdmissionDecide(t *testing.T) {
	cases := []struct {
		name         string
		cfg          AdmissionConfig
		jobTasks     int
		deadline     time.Duration
		queueDepth   int
		workers      int
		observedRate float64
		wantAdmit    bool
		wantShed     bool
	}{
		{
			// 10 tasks / (2 workers × 10/s) = 500ms, well under 2s.
			name:     "under capacity admits",
			cfg:      AdmissionConfig{TaskRatePerWorker: 10},
			jobTasks: 10, deadline: 2 * time.Second, workers: 2,
			wantAdmit: true,
		},
		{
			// (90 queued + 10 new) / (2 × 10/s) = 5s > 2s.
			name:     "backlog pushes prediction past deadline",
			cfg:      AdmissionConfig{TaskRatePerWorker: 10},
			jobTasks: 10, deadline: 2 * time.Second, queueDepth: 90, workers: 2,
			wantAdmit: false,
		},
		{
			name:     "no deadline admits regardless of backlog",
			cfg:      AdmissionConfig{TaskRatePerWorker: 10},
			jobTasks: 10, queueDepth: 10_000, workers: 1,
			wantAdmit: true,
		},
		{
			name:     "default deadline applies when job has none",
			cfg:      AdmissionConfig{TaskRatePerWorker: 10, Deadline: time.Second},
			jobTasks: 100, workers: 1, // 100/10 = 10s > 1s default
			wantAdmit: false,
		},
		{
			name:     "no workers means unpredictable, reject",
			cfg:      AdmissionConfig{TaskRatePerWorker: 10},
			jobTasks: 1, deadline: time.Second, workers: 0,
			wantAdmit: false,
		},
		{
			// Exactly at deadline: 20 tasks / (2×10/s) = 1000ms = deadline.
			name:     "prediction equal to deadline admits",
			cfg:      AdmissionConfig{TaskRatePerWorker: 10},
			jobTasks: 20, deadline: time.Second, workers: 2,
			wantAdmit: true,
		},
		{
			// Safety factor 2 doubles the 1000ms prediction past 1s.
			name:     "safety factor tips a borderline job",
			cfg:      AdmissionConfig{TaskRatePerWorker: 10, SafetyFactor: 2},
			jobTasks: 20, deadline: time.Second, workers: 2,
			wantAdmit: false,
		},
		{
			// No configured rate: the observed service rate stands in.
			name:     "observed rate fallback",
			cfg:      AdmissionConfig{},
			jobTasks: 10, deadline: 2 * time.Second, workers: 2, observedRate: 10,
			wantAdmit: true,
		},
		{
			name:     "observed fallback rejects when too slow",
			cfg:      AdmissionConfig{},
			jobTasks: 100, deadline: time.Second, workers: 2, observedRate: 1,
			wantAdmit: false,
		},
		{
			name:     "shed converts reject into degraded admit",
			cfg:      AdmissionConfig{TaskRatePerWorker: 10, Shed: true},
			jobTasks: 10, deadline: 2 * time.Second, queueDepth: 90, workers: 2,
			wantAdmit: true, wantShed: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := newAdmissionGate(tc.cfg, nil, nil)
			d := g.decide("job", "trace", tc.jobTasks, tc.deadline, tc.queueDepth, tc.workers, tc.observedRate)
			if d.Admit != tc.wantAdmit || d.Shed != tc.wantShed {
				t.Fatalf("decide = admit=%t shed=%t (pred %.0fms, deadline %dms), want admit=%t shed=%t",
					d.Admit, d.Shed, d.PredictedMs, d.DeadlineMs, tc.wantAdmit, tc.wantShed)
			}
			if !tc.wantAdmit {
				if d.Err == nil {
					t.Fatal("rejection carries no error")
				}
				if !errors.Is(d.Err, ErrAdmissionRejected) {
					t.Errorf("rejection error %v does not wrap ErrAdmissionRejected", d.Err)
				}
			} else if d.Err != nil {
				t.Errorf("admitted decision carries error %v", d.Err)
			}
		})
	}
}

func TestAdmissionMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	g := newAdmissionGate(AdmissionConfig{TaskRatePerWorker: 10}, reg, nil)
	g.decide("ok", "", 10, 2*time.Second, 0, 2, 0) // admit
	g.decide("no", "", 100, time.Second, 0, 1, 0)  // reject
	g.decide("no2", "", 100, time.Second, 0, 1, 0) // reject
	snap := reg.Snapshot()
	if got := snap.Counters["admission_accepted_total"]; got != 1 {
		t.Errorf("accepted = %d, want 1", got)
	}
	if got := snap.Counters["admission_rejected_total"]; got != 2 {
		t.Errorf("rejected = %d, want 2", got)
	}
	h, ok := snap.Histograms["admission_predicted_miss_ms"]
	if !ok || h.Count != 2 {
		t.Errorf("predicted_miss histogram = %+v, want 2 observations", h)
	}
}

// TestAdmissionRejectionLogged is the regression test for rejection
// provenance: a refused job must leave a structured log line carrying
// job/trace correlation and an errtrace return path.
func TestAdmissionRejectionLogged(t *testing.T) {
	logger := obs.NewLogger(nil, obs.LevelDebug, 64)
	g := newAdmissionGate(AdmissionConfig{TaskRatePerWorker: 10}, nil, logger)
	d := g.decide("job-42", "trace-abc", 100, time.Second, 0, 1, 0)
	if d.Admit {
		t.Fatal("job should have been rejected")
	}
	var entry *obs.LogEntry
	for _, e := range logger.Entries() {
		if e.Msg == "job rejected by admission control" {
			e := e
			entry = &e
			break
		}
	}
	if entry == nil {
		t.Fatal("no rejection log line recorded")
	}
	if entry.Fields["job_id"] != "job-42" || entry.Fields["trace_id"] != "trace-abc" {
		t.Errorf("log correlation fields = %v, want job-42/trace-abc", entry.Fields)
	}
	trace, ok := entry.Fields["err_trace"].([]string)
	if !ok || len(trace) == 0 {
		t.Fatalf("rejection log has no err_trace return path: %v", entry.Fields["err_trace"])
	}
	if !strings.Contains(trace[0], "admission.go") {
		t.Errorf("err_trace origin %q should point into admission.go", trace[0])
	}
	for _, key := range []string{"predicted_ms", "deadline_ms", "queue_depth", "workers"} {
		if _, ok := entry.Fields[key]; !ok {
			t.Errorf("rejection log missing %q field", key)
		}
	}
}

// TestMasterAdmitJob exercises the live-input path: queue depth from the
// scheduler and pool size from the cluster registry.
func TestMasterAdmitJob(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Nobody reads Results here, so the buffer holds every task submitted
	// below: once unblocked the worker may finish any number of them before
	// Pool.Close lands, and a full buffer wedges the handler Close waits for.
	m := NewMaster(MasterConfig{
		ResultBuffer: 512,
		Admission:    &AdmissionConfig{TaskRatePerWorker: 100},
	})
	block := make(chan struct{})
	p := NewPool(m, func(ctx context.Context, payload []byte) ([]byte, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return payload, nil
	})
	defer p.Close()
	p.Resize(ctx, 1)
	waitFor(t, func() bool { return m.WorkerCount() == 1 }, "worker to attach")

	if d := m.AdmitJob("fits", "", 10, time.Second); !d.Admit {
		t.Fatalf("empty pool should admit a small job: %+v", d)
	}
	// Pile up a backlog the single worker cannot drain in time; the gate
	// must start refusing.
	for i := 0; i < 500; i++ {
		if err := m.Submit(Task{ID: "t" + string(rune('a'+i%26)) + string(rune('0'+i/26)), JobID: "bg"}); err != nil {
			t.Fatal(err)
		}
	}
	d := m.AdmitJob("late", "", 10, time.Second)
	if d.Admit {
		t.Fatalf("backlogged pool should reject: %+v", d)
	}
	if !errors.Is(d.Err, ErrAdmissionRejected) {
		t.Errorf("err %v does not wrap sentinel", d.Err)
	}
	close(block)
}

// TestMasterAdmitJobOpenGate: without an AdmissionConfig every job is
// admitted.
func TestMasterAdmitJobOpenGate(t *testing.T) {
	m := NewMaster(MasterConfig{})
	if d := m.AdmitJob("any", "", 1_000_000, time.Millisecond); !d.Admit {
		t.Fatalf("open gate refused a job: %+v", d)
	}
}

// observedGateMaster is a master whose gate has no configured rate, with
// a pool of n attached workers that take 1 ms a task.
func observedGateMaster(t *testing.T, n int) *Master {
	t.Helper()
	m := NewMaster(MasterConfig{ResultBuffer: 64, Admission: &AdmissionConfig{}})
	p := NewPool(m, func(ctx context.Context, payload []byte) ([]byte, error) {
		time.Sleep(time.Millisecond)
		return payload, nil
	})
	t.Cleanup(p.Close)
	p.Resize(context.Background(), n)
	waitFor(t, func() bool { return m.WorkerCount() == n }, "workers to attach")
	return m
}

// TestMasterAdmitJobBeforeFirstCompletion: a gate that measures its own
// rate has none until a task completes. It must admit then — refusing
// would mean nothing ever completes and the rate never leaves zero.
func TestMasterAdmitJobBeforeFirstCompletion(t *testing.T) {
	m := observedGateMaster(t, 1)
	if d := m.AdmitJob("first", "", 4, 50*time.Millisecond); !d.Admit {
		t.Fatalf("fresh pool refused its first deadline job: %+v", d)
	}
}

// TestMasterAdmitJobIdlePoolMeasuresServiceRate: the observed rate is the
// workers' service rate, 1000/(exec+transfer ms), not their throughput
// under the offered load. 1 ms tasks at ten a second keep two workers
// almost idle, at 5 to 10 completions/s each; predicted from that, a
// 4-task job would take 200 ms or more and miss a 50 ms deadline it meets
// in under 10.
func TestMasterAdmitJobIdlePoolMeasuresServiceRate(t *testing.T) {
	m := observedGateMaster(t, 2)
	for i := 0; i < 5; i++ {
		if err := m.Submit(Task{ID: "sparse-" + string(rune('0'+i)), JobID: "bg"}); err != nil {
			t.Fatal(err)
		}
		<-m.Results()
		time.Sleep(100 * time.Millisecond)
	}
	d := m.AdmitJob("small", "", 4, 50*time.Millisecond)
	if !d.Admit || d.RatePerWorker < 40 {
		t.Fatalf("idle pool of 1 ms workers: %+v, want admitted at a rate of hundreds of tasks/s", d)
	}
}

// TestAdmitJobCountsBackedOffTasks: a task waiting out its requeue
// backoff is still ahead of a new job. Losing the one in-flight task to a
// worker crash must not empty the gate's queue depth while the task sits
// out an hour's backoff.
func TestAdmitJobCountsBackedOffTasks(t *testing.T) {
	m := NewMaster(MasterConfig{
		Admission:      &AdmissionConfig{TaskRatePerWorker: 1},
		RequeueBackoff: BackoffConfig{Base: time.Hour, Max: time.Hour},
	})
	defer m.Shutdown()
	task := Task{ID: "t", JobID: "j"}
	m.trackInflight(queued{Task: task}, "w")
	if d := m.AdmitJob("probe", "", 1, 0); d.QueueDepth != 1 {
		t.Fatalf("one task in flight: queue depth %d, want 1", d.QueueDepth)
	}
	m.requeue(task)
	if d := m.AdmitJob("probe", "", 1, 0); d.QueueDepth != 1 {
		t.Fatalf("one task in requeue backoff: queue depth %d, want 1", d.QueueDepth)
	}
}
