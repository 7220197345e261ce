package nlp

import (
	"slices"
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

	recent map[string]*window // key: claim id
}

// window is a claim's reports in time order; those before start expired.
type window struct {
	seen  []seenReport
	start int
}

type seenReport struct {
	at     time.Time
	tokens []uint64 // the report's Doc.Set
	sig    uint64   // textutil.Sig of tokens
}

// NewIndependenceScorer returns a scorer with the default window and
// thresholds.
func NewIndependenceScorer() *IndependenceScorer {
	return &IndependenceScorer{
		Window:              10 * time.Minute,
		SimilarityThreshold: 0.8,
		CopyScore:           0.1,
		OriginalScore:       0.95,
	}
}

// ScoreDoc rates the independence of a report on the given claim at time t
// and records it for future comparisons: against the claim's reports from
// the Window before t on, whatever order they arrived in.
func (s *IndependenceScorer) ScoreDoc(claimID string, d *textutil.Doc, t time.Time) float64 {
	if s.recent == nil {
		s.recent = make(map[string]*window)
	}
	w := s.recent[claimID]
	if w == nil {
		w = new(window)
		s.recent[claimID] = w
	}
	// The reports older than the Window before t are a prefix; every
	// other one is compared.
	cutoff := t.Add(-s.Window)
	for w.start < len(w.seen) && w.seen[w.start].at.Before(cutoff) {
		w.start++
	}
	score, sig := s.OriginalScore, textutil.Sig(d.Set)
	if isRetweet(d.Lower) || s.copies(d.Set, sig, w.seen[w.start:]) {
		score = s.CopyScore
	}
	if len(w.seen) == cap(w.seen) && w.start > 0 { // reuse the expired prefix's room
		w.seen, w.start = w.seen[:copy(w.seen, w.seen[w.start:])], 0
	}
	at := len(w.seen)
	for at > w.start && t.Before(w.seen[at-1].at) {
		at--
	}
	w.seen = slices.Insert(w.seen, at, seenReport{at: t, tokens: d.Set, sig: sig})
	return score
}

// copies reports whether set, of signature sig, is a near-duplicate of a
// report in window.
func (s *IndependenceScorer) copies(set []uint64, sig uint64, window []seenReport) bool {
	var need [64]int // 1 + the least shared count, by entry size; 0 until asked
	for _, prev := range window {
		n, k := len(prev.tokens), 0
		if n >= len(need) {
			k = textutil.MinOverlap(len(set), n, s.SimilarityThreshold)
		} else if k = need[n] - 1; k < 0 {
			k = textutil.MinOverlap(len(set), n, s.SimilarityThreshold)
			need[n] = k + 1
		}
		if textutil.SharedBound(len(set), sig, n, prev.sig) < k {
			continue
		}
		if _, ok := textutil.Overlap(set, prev.tokens, k); ok {
			return true
		}
	}
	return false
}

// isRetweet detects the conventional retweet markers in lowercased text.
func isRetweet(lower string) bool {
	lt := strings.TrimSpace(lower)
	return strings.HasPrefix(lt, "rt @") || strings.HasPrefix(lt, "rt:") ||
		strings.Contains(lt, "retweet")
}
