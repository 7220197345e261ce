package obs

import (
	"io"
	"math"
	"sync"
	"testing"
	"time"
)

// TestCounterParallelIncrements is the acceptance stress test: N goroutines
// hammering shared counters and histograms must lose no updates (run under
// -race).
func TestCounterParallelIncrements(t *testing.T) {
	reg := NewRegistry()
	const (
		goroutines = 16
		perG       = 10000
	)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("stress_total")
			h := reg.Histogram("stress_ms", nil)
			for j := 0; j < perG; j++ {
				c.Inc()
				h.Observe(float64(j % 100))
			}
		}()
	}
	wg.Wait()

	want := int64(goroutines * perG)
	if got := reg.Counter("stress_total").Value(); got != want {
		t.Errorf("counter lost updates: got %d want %d", got, want)
	}
	h := reg.Histogram("stress_ms", nil)
	if got := h.Count(); got != want {
		t.Errorf("histogram lost observations: got %d want %d", got, want)
	}
	// Each goroutine observes 0..99 repeated; the sum is exact.
	wantSum := float64(goroutines) * float64(perG/100) * (99 * 100 / 2)
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Errorf("histogram sum drifted: got %v want %v", got, wantSum)
	}
}

// TestConcurrentRegistryAccess races metric creation against snapshotting.
func TestConcurrentRegistryAccess(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			names := []string{"a", "b", "c", "d"}
			for j := 0; j < 1000; j++ {
				reg.Counter(names[j%len(names)]).Inc()
				reg.Gauge(names[j%len(names)]).Set(float64(j))
				reg.Histogram(names[j%len(names)], nil).Observe(float64(j))
				if j%100 == 0 {
					_ = reg.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if snap.Counters["a"]+snap.Counters["b"]+snap.Counters["c"]+snap.Counters["d"] != 8000 {
		t.Errorf("counters sum to %d, want 8000", snap.Counters["a"]+snap.Counters["b"]+snap.Counters["c"]+snap.Counters["d"])
	}
}

// TestNilSafety: every handle from a nil registry and every nil sink must
// be inert, not a panic.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("x")
	h := reg.Histogram("x", nil)
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.SetInt(2)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Snapshot().Quantile(0.5) != 0 {
		t.Error("nil metric handles must read as zero")
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot must be empty")
	}

	var tr *Tracer
	span := tr.NewSpan("x", 0)
	if span != nil {
		t.Error("nil tracer must hand out nil spans")
	}
	span.SetAttr("k", "v")
	span.Finish()
	if span.SpanID() != 0 {
		t.Error("nil span ID must be 0")
	}
	if tr.Len() != 0 || tr.Total() != 0 || tr.Spans() != nil {
		t.Error("nil tracer must be empty")
	}

	var rec *ControlRecorder
	rec.BeginTick()
	rec.Record(ControlSample{Job: "j"})
	if rec.Len() != 0 || rec.Samples() != nil {
		t.Error("nil recorder must record nothing")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	// 100 observations uniform in (0, 1]: all land in the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if p50 := h.Snapshot().Quantile(0.5); p50 <= 0 || p50 > 1 {
		t.Errorf("p50 = %v, want within (0, 1]", p50)
	}
	// Push the tail into the overflow bucket.
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	if p99 := h.Snapshot().Quantile(0.99); p99 != 8 {
		t.Errorf("overflow p99 = %v, want highest finite bound 8", p99)
	}
	if h.Count() != 200 {
		t.Errorf("count = %d, want 200", h.Count())
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{10, 20})
	h.Observe(10) // on-bound lands in bucket 0 (v <= bound)
	h.Observe(15)
	h.Observe(25) // overflow
	s := h.Snapshot()
	want := []int64{1, 1, 1}
	for i, n := range want {
		if s.Counts[i] != n {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], n, s.Counts)
		}
	}
}

// TestRegistryReturnsSameHandle: repeated lookups must hit the same metric.
func TestRegistryReturnsSameHandle(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("x") != reg.Counter("x") {
		t.Error("counter handles differ across lookups")
	}
	if reg.Histogram("h", []float64{1}) != reg.Histogram("h", []float64{99}) {
		t.Error("histogram handles differ across lookups (bounds fixed on first use)")
	}
}

// TestLoggerBelowLevelAllocFree: a call under the logger's level costs a
// level check and nothing else — no clock read, no fields map.
func TestLoggerBelowLevelAllocFree(t *testing.T) {
	lg := NewLogger(io.Discard, LevelWarn, 8)
	if got := testing.AllocsPerRun(100, func() {
		lg.Debug("task assigned", F("worker_id", "w-1"), F("task_id", "t-42"))
	}); got != 0 {
		t.Errorf("below-level Debug with two fields: %v allocations, want 0", got)
	}
	if n := len(lg.Entries()); n != 0 {
		t.Fatalf("below-level entries recorded: %d", n)
	}
}
