package contrib

import (
	"testing"

	"github.com/social-sensing/sstd/internal/tracegen"
)

// BenchmarkScorePost is one op per post through Eq. 1's three scorers,
// over the Boston slice (scale 0.05, seed 42) under the trace's own claim
// IDs; the scorer restarts, off the clock, each time the slice runs out.
func BenchmarkScorePost(b *testing.B) {
	gen, err := tracegen.New(tracegen.BostonBombing(), 42)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := gen.Generate(0.05)
	if err != nil {
		b.Fatal(err)
	}
	posts := tr.Reports
	s := NewScorer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := posts[i%len(posts)]
		if i > 0 && i%len(posts) == 0 {
			b.StopTimer()
			s = NewScorer()
			b.StartTimer()
		}
		s.ScorePost(Post{Source: p.Source, Claim: p.Claim, Timestamp: p.Timestamp, Text: p.Text})
	}
}
