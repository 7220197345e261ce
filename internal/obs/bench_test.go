package obs

import (
	"fmt"
	"io"
	"testing"
)

// BenchmarkCounterInc is the acceptance benchmark: a hot-path increment
// must cost under ~50ns (it is one uncontended atomic add).
func BenchmarkCounterInc(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkCounterIncNil measures the telemetry-off cost: one nil check.
func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench_total")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("bench_ms", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
}

func BenchmarkStartFinishSpan(b *testing.B) {
	tr := NewTracer(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.NewSpan("bench", 0).Finish()
	}
}

// BenchmarkLoggerInfo measures an emitted structured line: encode under
// the lock plus the ring append. io.Discard stands in for stderr.
func BenchmarkLoggerInfo(b *testing.B) {
	lg := NewLogger(io.Discard, LevelInfo, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lg.Info("task assigned", WorkerID("w-1"), TaskID("t-42"), F("attempt", 1))
	}
}

// BenchmarkLoggerBelowLevel measures a filtered call — the logger-on,
// level-off hot path every Debug call in the master pays.
func BenchmarkLoggerBelowLevel(b *testing.B) {
	lg := NewLogger(io.Discard, LevelWarn, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lg.Debug("task assigned", WorkerID("w-1"), TaskID("t-42"))
	}
}

// BenchmarkLoggerNil measures the telemetry-off cost: one nil check.
func BenchmarkLoggerNil(b *testing.B) {
	var lg *Logger
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lg.Info("task assigned", WorkerID("w-1"))
	}
}

// BenchmarkIngestRemoteSpan measures folding a worker's shipped span into
// the master's ring, the per-message cost of distributed tracing.
func BenchmarkIngestRemoteSpan(b *testing.B) {
	tr := NewTracer(4096)
	s := Span{Trace: "abc-1", Parent: 7, Name: "exec", Proc: "w-1"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Ingest(s)
	}
}

// BenchmarkTelemetryShipApply times a telemetry ship from a worker
// registry of 8 counters and 8 histograms: the worker's snapshot and the
// master's fold of it under the worker's label.
func BenchmarkTelemetryShipApply(b *testing.B) {
	reg, master := NewRegistry(), NewRegistry()
	for i := 0; i < 8; i++ {
		reg.Counter(fmt.Sprintf("c%d", i)).Add(int64(i))
		reg.Histogram(fmt.Sprintf("h%d", i), nil).Observe(float64(i))
	}
	prev := reg.Snapshot()
	master.Fold(RegistrySnapshot{}, prev, "worker", "w")
	hot := reg.Counter("c0")
	h := reg.Histogram("h0", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hot.Inc()
		h.Observe(1)
		cur := reg.Snapshot()
		master.Fold(prev, cur, "worker", "w")
		prev = cur
	}
}
