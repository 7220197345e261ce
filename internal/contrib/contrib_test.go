package contrib

import (
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/nlp"
	"github.com/social-sensing/sstd/internal/socialsensing"
)

func t0() time.Time { return time.Date(2013, 4, 15, 14, 50, 0, 0, time.UTC) }

func TestScorePostAssertive(t *testing.T) {
	s := NewScorer()
	r := s.ScorePost(Post{
		Source:    "witness",
		Claim:     "explosion",
		Timestamp: t0(),
		Text:      "police confirmed two explosions at the marathon finish line",
	})
	if r.Attitude != socialsensing.Agree {
		t.Errorf("attitude = %v, want Agree", r.Attitude)
	}
	if r.Uncertainty >= 0.5 {
		t.Errorf("assertive text uncertainty = %v, want < 0.5", r.Uncertainty)
	}
	if r.Independence < 0.9 {
		t.Errorf("original text independence = %v, want >= 0.9", r.Independence)
	}
	if cs := r.ContributionScore(); cs <= 0.4 {
		t.Errorf("contribution score = %v, want substantial positive", cs)
	}
}

func TestScorePostHedgedRetweet(t *testing.T) {
	s := NewScorer()
	assertive := s.ScorePost(Post{
		Source: "a", Claim: "c", Timestamp: t0(),
		Text: "police confirmed the arrest",
	})
	hedged := s.ScorePost(Post{
		Source: "b", Claim: "c", Timestamp: t0().Add(time.Second),
		Text: "i think there might be an arrest maybe",
	})
	if hedged.ContributionScore() >= assertive.ContributionScore() {
		t.Errorf("hedged CS %v should be below assertive CS %v",
			hedged.ContributionScore(), assertive.ContributionScore())
	}
	rt := s.ScorePost(Post{
		Source: "c", Claim: "c", Timestamp: t0().Add(2 * time.Second),
		Text: "RT @a: police confirmed the arrest",
	})
	if rt.Independence >= 0.5 {
		t.Errorf("retweet independence = %v, want low", rt.Independence)
	}
	if rt.ContributionScore() >= assertive.ContributionScore() {
		t.Error("retweet should contribute less than the original")
	}
}

func TestScorePostDenial(t *testing.T) {
	s := NewScorer()
	r := s.ScorePost(Post{
		Source: "skeptic", Claim: "c", Timestamp: t0(),
		Text: "the bomb threat at the library is fake",
	})
	if r.Attitude != socialsensing.Disagree {
		t.Fatalf("attitude = %v, want Disagree", r.Attitude)
	}
	if cs := r.ContributionScore(); cs >= 0 {
		t.Errorf("denial contribution score = %v, want negative", cs)
	}
}

func TestWithCustomScorers(t *testing.T) {
	s := NewScorer(WithAttitudeScorer(nlp.NewSportsAttitudeScorer()))
	r := s.ScorePost(Post{Source: "fan", Claim: "score", Timestamp: t0(), Text: "TOUCHDOWN irish"})
	if r.Attitude != socialsensing.Agree {
		t.Errorf("sports scorer attitude = %v, want Agree", r.Attitude)
	}
	r2 := s.ScorePost(Post{Source: "fan2", Claim: "score", Timestamp: t0(), Text: "nice weather at the stadium"})
	if r2.Attitude != socialsensing.Disagree {
		t.Errorf("sports scorer chatter attitude = %v, want Disagree", r2.Attitude)
	}
}

// TestScorePostDuplicateLowersIndependence: a scorer remembers what it has
// seen per claim, so a verbatim repeat scores less independent than the
// first post, while a new scorer scores the same repeat as an original.
func TestScorePostDuplicateLowersIndependence(t *testing.T) {
	text := "two explosions at the marathon"
	first := Post{Source: "a", Claim: "c", Timestamp: t0(), Text: text}
	dup := Post{Source: "b", Claim: "c", Timestamp: t0().Add(time.Second), Text: text}
	s := NewScorer()
	r0 := s.ScorePost(first)
	r1 := s.ScorePost(dup)
	if r1.Independence >= r0.Independence {
		t.Errorf("duplicate independence %v, want below the first post's %v", r1.Independence, r0.Independence)
	}
	if r := NewScorer().ScorePost(dup); r.Independence < 0.9 {
		t.Errorf("fresh scorer: independence = %v, want original-level", r.Independence)
	}
}
