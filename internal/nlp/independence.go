package nlp

import (
	"strings"
	"time"

	"github.com/social-sensing/sstd/internal/textutil"
)

// IndependenceScorer assigns each report an independence score in (0,1)
// (Definition 3): retweets and near-duplicates of recent reports receive a
// low score, original reports a high score. The scorer keeps a sliding
// window of recently seen reports per claim and compares new text against
// them with Jaccard similarity, mirroring the paper's "retweets or tweets
// significantly similar to previous tweets within a time interval" rule.
type IndependenceScorer struct {
	// Window is how long a previous report stays eligible as a copy
	// source. The paper uses a short interval; default 10 minutes.
	Window time.Duration
	// SimilarityThreshold is the Jaccard similarity above which a report
	// counts as a near-duplicate. Default 0.8.
	SimilarityThreshold float64
	// CopyScore is the independence assigned to detected copies. Default 0.1.
	CopyScore float64
	// OriginalScore is the independence assigned to original reports.
	// Default 0.95.
	OriginalScore float64

	recent map[string][]seenReport // key: claim id
}

type seenReport struct {
	at     time.Time
	tokens []uint64 // the report's Doc.Set
}

// NewIndependenceScorer returns a scorer with the default window and
// thresholds.
func NewIndependenceScorer() *IndependenceScorer {
	return &IndependenceScorer{
		Window:              10 * time.Minute,
		SimilarityThreshold: 0.8,
		CopyScore:           0.1,
		OriginalScore:       0.95,
		recent:              make(map[string][]seenReport),
	}
}

// Score rates the independence of a report on the given claim at time t and
// records it for future comparisons. Calls must be made in non-decreasing
// time order per claim.
func (s *IndependenceScorer) Score(claimID, text string, t time.Time) float64 {
	return s.ScoreDoc(claimID, textutil.NewDoc(text), t)
}

// ScoreDoc is Score for a text that is already tokenized.
func (s *IndependenceScorer) ScoreDoc(claimID string, d textutil.Doc, t time.Time) float64 {
	if s.recent == nil {
		s.recent = make(map[string][]seenReport)
	}
	window := s.recent[claimID]
	score := s.OriginalScore
	if isRetweet(d.Lower) {
		score = s.CopyScore
	} else {
		for _, prev := range window {
			if t.Sub(prev.at) > s.Window || textutil.JaccardBound(len(d.Set), len(prev.tokens)) < s.SimilarityThreshold {
				continue
			}
			if textutil.Jaccard(d.Set, prev.tokens) >= s.SimilarityThreshold {
				score = s.CopyScore
				break
			}
		}
	}
	// Remember the report and drop entries older than the window.
	cutoff := t.Add(-s.Window)
	keep := 0
	for _, prev := range window {
		if !prev.at.Before(cutoff) {
			window[keep] = prev
			keep++
		}
	}
	s.recent[claimID] = append(window[:keep], seenReport{at: t, tokens: d.Set})
	return score
}

// Reset discards all remembered reports.
func (s *IndependenceScorer) Reset() {
	s.recent = make(map[string][]seenReport)
}

// isRetweet detects the conventional retweet markers in lowercased text.
func isRetweet(lower string) bool {
	lt := strings.TrimSpace(lower)
	return strings.HasPrefix(lt, "rt @") || strings.HasPrefix(lt, "rt:") ||
		strings.Contains(lt, "retweet")
}
