package flightrec

import (
	"testing"
	"time"
)

// BenchmarkProbe measures one chained probe — the hot-path shape, where
// each phase reuses the previous probe's end stamp as its start (one
// clock read, one cursor increment, five stores per event). The
// acceptance bar is <100ns and 0 allocs/op so probes can stay on in
// production.
func BenchmarkProbe(b *testing.B) {
	r, err := NewRecorder(Config{ringSize: 8192})
	if err != nil {
		b.Fatal(err)
	}
	g := r.Ring("bench")
	b.ReportAllocs()
	b.ResetTimer()
	t := g.Start()
	for i := 0; i < b.N; i++ {
		t = g.Probe(ProbeHMMForward, t, int64(i), 12345)
	}
}

// BenchmarkProbePair is the unchained shape — Start plus Probe, two
// clock reads — paid by isolated probe sites.
func BenchmarkProbePair(b *testing.B) {
	r, err := NewRecorder(Config{ringSize: 8192})
	if err != nil {
		b.Fatal(err)
	}
	g := r.Ring("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Probe(ProbeHMMForward, g.Start(), int64(i), 12345)
	}
}

// BenchmarkProbeDisabled is the cost with no recorder installed: the
// nil-ring fast path every probe site pays when flight recording is off.
func BenchmarkProbeDisabled(b *testing.B) {
	var g *Ring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Probe(ProbeHMMForward, g.Start(), int64(i), 12345)
	}
}

// BenchmarkProbeContended is the shared-ring worst case: GOMAXPROCS
// goroutines fetch-adding one cursor.
func BenchmarkProbeContended(b *testing.B) {
	r, err := NewRecorder(Config{ringSize: 8192})
	if err != nil {
		b.Fatal(err)
	}
	g := r.Ring("contended")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			g.Probe(ProbeCodecEncode, g.Start(), 1, 2)
		}
	})
}

// BenchmarkBurstObserve is the trigger-side cost paid per deadline miss
// or admission rejection while armed but below threshold.
func BenchmarkBurstObserve(b *testing.B) {
	if _, err := Enable(Config{Cooldown: time.Hour, DumpOn: []string{TrigStraggler}}); err != nil {
		b.Fatal(err)
	}
	defer EnableCLI("", nil, nil, nil)
	// Deadline-miss is disarmed: Observe takes the cheap rejection path,
	// as in a production process with dumps scoped to another trigger.
	bd := NewBurst(TrigDeadlineMiss, 3, time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd.Observe("miss")
	}
}
