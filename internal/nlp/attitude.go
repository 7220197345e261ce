// Package nlp implements the semantic labelling the paper's preprocessing
// step performs on each report (§V-A2): an attitude score from keyword
// heuristics, an uncertainty score from a trained hedge classifier (the
// paper trains a text classifier on the CoNLL-2010 hedge-detection shared
// task; we ship an equivalent Naive Bayes classifier with a built-in hedge
// corpus), and an independence score from retweet/similarity analysis.
package nlp

import (
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/textutil"
)

// AttitudeScorer classifies a report's stance toward a claim following the
// paper's heuristic: the presence of denial keywords ("false", "fake",
// "rumor", "debunked", "not true") flips a report to Disagree; supportive
// keywords (or the absence of denial for the emergency traces) yield Agree.
type AttitudeScorer struct {
	deny, support               []uint64   // token hash sets
	denyPhrases, supportPhrases [][]uint64 // token hash sequences
}

// Lexicon lists the markers an AttitudeScorer looks for. Entries are
// tokenized as posts are; a phrase with no tokens, such as "?!", would occur
// in every post and is ignored.
type Lexicon struct {
	// DenyWords are single tokens indicating the source rejects the claim.
	DenyWords []string
	// DenyPhrases are multi-token denial expressions.
	DenyPhrases []string
	// SupportWords, when non-empty, gate Agree: a report must contain one
	// of them to count as supportive; otherwise it is scored Disagree.
	// This matches the College Football trace setup, where only tweets
	// with score-change words ("score", "lead", "tied") support the
	// "score changed" claim and all other tweets are scored -1.
	SupportWords []string
	// SupportPhrases are multi-token support expressions.
	SupportPhrases []string
}

// NewAttitudeScorer compiles a lexicon: words into hash sets, phrases into
// token hash sequences.
func NewAttitudeScorer(lex Lexicon) *AttitudeScorer {
	phrases := func(in []string) [][]uint64 {
		var out [][]uint64
		for _, p := range in {
			if d := textutil.NewDoc(p); len(d.Hashes) > 0 {
				out = append(out, d.Hashes)
			}
		}
		return out
	}
	return &AttitudeScorer{
		deny:           textutil.HashSet(lex.DenyWords),
		support:        textutil.HashSet(lex.SupportWords),
		denyPhrases:    phrases(lex.DenyPhrases),
		supportPhrases: phrases(lex.SupportPhrases),
	}
}

// defaultLexicon is the denial lexicon the paper lists for the emergency
// traces.
var defaultLexicon = Lexicon{
	DenyWords:   []string{"false", "fake", "rumor", "rumour", "hoax", "debunked", "untrue", "misinformation"},
	DenyPhrases: []string{"not true", "no truth", "didn't happen", "did not happen", "fake news"},
}

// NewDefaultAttitudeScorer returns the scorer configured with the
// emergency lexicon. Reports without denial markers are treated as agreeing
// with the claim they were clustered into.
func NewDefaultAttitudeScorer() *AttitudeScorer { return NewAttitudeScorer(defaultLexicon) }

// ScoreDoc returns the attitude of a tokenized report text: Disagree when a
// denial marker is present, otherwise Agree (or Disagree when support
// markers are configured and none match). Empty text yields NoReport.
func (s *AttitudeScorer) ScoreDoc(d *textutil.Doc) socialsensing.Attitude {
	sig := textutil.Sig(d.Set)
	switch {
	case len(d.Hashes) == 0:
		return socialsensing.NoReport
	case d.HasAny(s.deny) || hasAnyPhrase(d, sig, s.denyPhrases):
		return socialsensing.Disagree
	case len(s.support) == 0 && len(s.supportPhrases) == 0:
		return socialsensing.Agree
	case d.HasAny(s.support) || hasAnyPhrase(d, sig, s.supportPhrases):
		return socialsensing.Agree
	}
	return socialsensing.Disagree
}

// hasAnyPhrase reports whether d, of signature sig, holds one of the
// phrases; the signature passes over most of them without a scan.
func hasAnyPhrase(d *textutil.Doc, sig uint64, phrases [][]uint64) bool {
	for _, p := range phrases {
		if textutil.MayHold(sig, p[0]) && d.HasPhrase(p) {
			return true
		}
	}
	return false
}
