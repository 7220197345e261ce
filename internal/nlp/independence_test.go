package nlp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/textutil"
)

// jaccard is the reference similarity |A∩B| / |A∪B| of two hash sets; two
// empty sets have similarity 1.
func jaccard(a, b []uint64) float64 {
	n, _ := textutil.Overlap(a, b, 0)
	return textutil.JaccardCount(n, len(a), len(b))
}

// refIndependence is IndependenceScorer.ScoreDoc as it stood before the
// window was kept in time order: reports in arrival order, every one
// checked against the window by time and compared by a full Jaccard, and
// the survivors copied down on every call.
type refIndependence struct {
	s      IndependenceScorer
	recent map[string][]seenReport
}

func (r *refIndependence) scoreDoc(claimID string, d textutil.Doc, t time.Time) float64 {
	s, window := &r.s, r.recent[claimID]
	score := s.OriginalScore
	if isRetweet(d.Lower) {
		score = s.CopyScore
	} else {
		for _, prev := range window {
			if t.Sub(prev.at) > s.Window {
				continue
			}
			if jaccard(d.Set, prev.tokens) >= s.SimilarityThreshold {
				score = s.CopyScore
				break
			}
		}
	}
	cutoff := t.Add(-s.Window)
	keep := 0
	for _, prev := range window {
		if !prev.at.Before(cutoff) {
			window[keep] = prev
			keep++
		}
	}
	r.recent[claimID] = append(window[:keep], seenReport{at: t, tokens: d.Set})
	return score
}

// TestIndependenceMatchesReference runs seeded random streams through the
// scorer and the reference and requires the same score, bit for bit, on
// every report. The streams mix in-order, equal, out-of-order and
// far-apart times over three claims, draw texts from a small vocabulary
// so near-duplicates are common, and include empty texts and retweets;
// the thresholds include values no pair or every pair reaches, and NaN.
func TestIndependenceMatchesReference(t *testing.T) {
	vocab := strings.Fields("boston marathon finish line explosion police bomb two near the at fake #news")
	thresholds := []float64{0.8, 0, 0.3, 2.0 / 3, 0.75, 1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	t0 := time.Date(2013, 4, 15, 14, 0, 0, 0, time.UTC)
	copies := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := IndependenceScorer{
			Window:              time.Duration(1+rng.Intn(20)) * time.Minute,
			SimilarityThreshold: thresholds[int(seed)%len(thresholds)],
			CopyScore:           0.1,
			OriginalScore:       0.95,
		}
		got, ref := cfg, &refIndependence{s: cfg, recent: make(map[string][]seenReport)}
		at := t0
		for i := 0; i < 600; i++ {
			switch rng.Intn(10) {
			case 0: // same time
			case 1: // out of order, within and beyond the window
				at = at.Add(-time.Duration(rng.Intn(30)) * time.Minute)
			case 2: // far apart
				at = at.Add(time.Duration(rng.Intn(1000)) * time.Hour)
			default:
				at = at.Add(time.Duration(rng.Intn(90)) * time.Second)
			}
			words := make([]string, rng.Intn(8))
			for j := range words {
				words[j] = vocab[rng.Intn(len(vocab))]
			}
			text := strings.Join(words, " ")
			if rng.Intn(20) == 0 {
				text = "RT @user: " + text
			}
			claim := []string{"c1", "c2", "c3"}[rng.Intn(3)]
			d := textutil.NewDoc(text)
			want := ref.scoreDoc(claim, d, at)
			if g := got.ScoreDoc(claim, d, at); math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("seed %d report %d (%q on %s at %v): score %v, reference %v", seed, i, text, claim, at, g, want)
			}
			if want == cfg.CopyScore && !isRetweet(d.Lower) {
				copies++
			}
		}
	}
	if copies == 0 {
		t.Fatal("no report scored as a near-duplicate: the streams test nothing")
	}
	t.Logf("%d near-duplicates", copies)
}
