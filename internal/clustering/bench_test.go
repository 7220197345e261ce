package clustering

import (
	"testing"

	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/tracegen"
)

// bostonSlice is the fixed input of the front-end layer benchmarks
// (BenchmarkAssign here, BenchmarkScorePost in contrib, BenchmarkProcess
// in pipeline): the Boston profile at scale 0.05, seed 42, in time order.
func bostonSlice(tb testing.TB) (tracegen.Profile, []socialsensing.Report) {
	tb.Helper()
	prof := tracegen.BostonBombing()
	gen, err := tracegen.New(prof, 42)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := gen.Generate(0.05)
	if err != nil {
		tb.Fatal(err)
	}
	return prof, tr.Reports
}

// BenchmarkAssign is one op per post through the claim generator; the
// clusterer restarts, off the clock, each time the slice runs out.
func BenchmarkAssign(b *testing.B) {
	prof, posts := bostonSlice(b)
	cfg := DefaultConfig()
	cfg.Keywords = prof.Keywords
	c := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := posts[i%len(posts)]
		if i > 0 && i%len(posts) == 0 {
			b.StopTimer()
			c = New(cfg)
			b.StartTimer()
		}
		c.Assign(p.Text, p.Timestamp)
	}
}
