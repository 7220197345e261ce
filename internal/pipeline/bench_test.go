package pipeline

import (
	"testing"

	"github.com/social-sensing/sstd/internal/clustering"
	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/tracegen"
)

// BenchmarkProcess is one op per raw post through filter, claim
// generator, scorers and engine ingest, over the Boston slice (scale
// 0.05, seed 42); the pipeline restarts, off the clock, each time the
// slice runs out.
func BenchmarkProcess(b *testing.B) {
	prof := tracegen.BostonBombing()
	gen, err := tracegen.New(prof, 42)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := gen.Generate(0.05)
	if err != nil {
		b.Fatal(err)
	}
	ccfg := clustering.DefaultConfig()
	ccfg.Keywords = prof.Keywords
	cfg := Config{Engine: core.DefaultConfig(tr.Start), Cluster: ccfg}
	fresh := func() *Pipeline {
		p, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	p := fresh()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := tr.Reports[i%len(tr.Reports)]
		if i > 0 && i%len(tr.Reports) == 0 {
			b.StopTimer()
			p = fresh()
			b.StartTimer()
		}
		if _, _, err := p.Process(RawPost{Source: r.Source, Time: r.Timestamp, Text: r.Text}); err != nil {
			b.Fatal(err)
		}
	}
}
