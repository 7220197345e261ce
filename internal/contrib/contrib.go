// Package contrib turns raw social sensing posts into scored Reports by
// combining the three semantic scorers of the paper's preprocessing step
// (§V-A2) into the contribution score of Eq. 1:
//
//	CS = attitude × (1 − uncertainty) × independence.
package contrib

import (
	"time"

	"github.com/social-sensing/sstd/internal/nlp"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/textutil"
)

// Post is a raw social-media observation before semantic scoring: a source
// said something about a claim at a time.
type Post struct {
	Source    socialsensing.SourceID
	Claim     socialsensing.ClaimID
	Timestamp time.Time
	Text      string
}

// Scorer converts posts to fully scored reports. It is not safe for
// concurrent use; create one per stream partition.
type Scorer struct {
	attitude     *nlp.AttitudeScorer
	hedge        *nlp.HedgeClassifier
	independence *nlp.IndependenceScorer
}

// NewScorer builds a Scorer with the paper's default components.
func NewScorer() *Scorer { return NewScorerWith(nlp.NewDefaultAttitudeScorer()) }

// NewScorerWith builds a Scorer with the paper's hedge and independence
// scorers and the given attitude scorer.
func NewScorerWith(attitude *nlp.AttitudeScorer) *Scorer {
	return &Scorer{
		attitude:     attitude,
		hedge:        nlp.NewDefaultHedgeClassifier(),
		independence: nlp.NewIndependenceScorer(),
	}
}

// ScorePost labels a post with attitude, uncertainty and independence and
// returns the resulting report. Posts must arrive in non-decreasing time
// order per claim for independence detection to work.
func (s *Scorer) ScorePost(p Post) socialsensing.Report {
	return s.ScoreDoc(p, textutil.NewDoc(p.Text))
}

// ScoreDoc is ScorePost for a post whose text is already tokenized into d.
func (s *Scorer) ScoreDoc(p Post, d textutil.Doc) socialsensing.Report {
	r := socialsensing.Report{
		Source:    p.Source,
		Claim:     p.Claim,
		Timestamp: p.Timestamp,
		Text:      p.Text,
	}
	r.Attitude = s.attitude.ScoreDoc(d)
	r.Uncertainty = s.hedge.UncertaintyDoc(d)
	r.Independence = s.independence.ScoreDoc(string(p.Claim), d, p.Timestamp)
	return r
}
