package textutil

import (
	"testing"

	"github.com/social-sensing/sstd/internal/tracegen"
)

// BenchmarkNewDoc is one op per post tokenized, over the texts of the
// front-end layer benchmarks' Boston slice (scale 0.05, seed 42).
func BenchmarkNewDoc(b *testing.B) {
	gen, err := tracegen.New(tracegen.BostonBombing(), 42)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := gen.Generate(0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewDoc(tr.Reports[i%len(tr.Reports)].Text)
	}
}
