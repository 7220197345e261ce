package nlp

import (
	"testing"

	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/textutil"
)

func TestStanceClassifierSeparates(t *testing.T) {
	c := NewDefaultStanceClassifier()
	supporting := []string{
		"confirmed there was a shooting at the stadium",
		"touchdown the irish just scored",
		"police made an arrest downtown",
		"i saw the explosion myself this is real",
	}
	denying := []string{
		"that shooting story is fake news",
		"the bomb threat was debunked hours ago",
		"no truth to the arrest rumor",
		"this is a hoax it did not happen",
	}
	for _, s := range supporting {
		if got := c.Score(s); got != socialsensing.Agree {
			t.Errorf("Score(%q) = %v, want Agree (p=%.3f)", s, got, c.nb.probPositive(textutil.NewDoc(s)))
		}
	}
	for _, d := range denying {
		if got := c.Score(d); got != socialsensing.Disagree {
			t.Errorf("Score(%q) = %v, want Disagree (p=%.3f)", d, got, c.nb.probPositive(textutil.NewDoc(d)))
		}
	}
}

func TestStanceClassifierNeutralBand(t *testing.T) {
	c := NewDefaultStanceClassifier()
	if got := c.Score("   "); got != socialsensing.NoReport {
		t.Errorf("empty text = %v, want NoReport", got)
	}
	// Out-of-vocabulary text falls to the prior (~0.5) inside the
	// neutral band.
	if got := c.Score("zzz qqq xyzzy"); got != socialsensing.NoReport {
		t.Errorf("unknown text = %v, want NoReport", got)
	}
	// A weakly-denying text: neutral under the default band, a hard
	// Disagree when the band is removed.
	weak := "old video again"
	p := c.nb.probPositive(textutil.NewDoc(weak))
	if p >= 0.5-c.NeutralBand && p <= 0.5+c.NeutralBand {
		if got := c.Score(weak); got != socialsensing.NoReport {
			t.Errorf("weak text inside band = %v, want NoReport", got)
		}
	}
	hard := NewDefaultStanceClassifier()
	hard.NeutralBand = 0
	if got := hard.Score(weak); got != socialsensing.Disagree {
		t.Errorf("zero band weak-deny text = %v (p=%.3f), want Disagree", got, hard.nb.probPositive(textutil.NewDoc(weak)))
	}
}

func TestStanceProbabilityBounds(t *testing.T) {
	c := NewDefaultStanceClassifier()
	for _, text := range []string{"", "fake fake fake", "confirmed confirmed", "zzz"} {
		p := c.nb.probPositive(textutil.NewDoc(text))
		if p <= 0 || p >= 1 {
			t.Errorf("SupportProbability(%q) = %v outside (0,1)", text, p)
		}
	}
}

func TestTrainStanceClassifierErrors(t *testing.T) {
	if _, err := TrainStanceClassifier(nil); err == nil {
		t.Error("empty corpus accepted")
	}
	oneSided := []LabeledStance{{Text: "confirmed", Supports: true}}
	if _, err := TrainStanceClassifier(oneSided); err == nil {
		t.Error("single-class corpus accepted")
	}
}

func TestStanceAsAttitudeModelInPipeline(t *testing.T) {
	// The classifier must be usable wherever the keyword scorer is.
	var m AttitudeModel = NewDefaultStanceClassifier()
	if got := m.Score("the story is fake news"); got != socialsensing.Disagree {
		t.Errorf("interface call = %v, want Disagree", got)
	}
}

// TestAssertiveCuesLeanSupport: each assertive cue of the stance corpus
// leans toward support on its own.
func TestAssertiveCuesLeanSupport(t *testing.T) {
	c := NewDefaultStanceClassifier()
	for _, cue := range []string{"confirmed", "touchdown", "breaking"} {
		if p := c.nb.probPositive(textutil.NewDoc(cue)); p <= 0.5 {
			t.Errorf("support probability of %q = %v, want > 0.5", cue, p)
		}
	}
}
