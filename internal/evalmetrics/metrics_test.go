package evalmetrics

import (
	"math"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

func TestConfusionCounts(t *testing.T) {
	var c Confusion
	c.Observe(socialsensing.True, socialsensing.True)   // TP
	c.Observe(socialsensing.True, socialsensing.False)  // FP
	c.Observe(socialsensing.False, socialsensing.False) // TN
	c.Observe(socialsensing.False, socialsensing.True)  // FN
	if c.TP != 1 || c.FP != 1 || c.TN != 1 || c.FN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if c.Total() != 4 {
		t.Errorf("Total = %d", c.Total())
	}
	if got := c.Accuracy(); got != 0.5 {
		t.Errorf("Accuracy = %v", got)
	}
	if got := c.Precision(); got != 0.5 {
		t.Errorf("Precision = %v", got)
	}
	if got := c.Recall(); got != 0.5 {
		t.Errorf("Recall = %v", got)
	}
	if got := c.F1(); got != 0.5 {
		t.Errorf("F1 = %v", got)
	}
}

func TestConfusionEdgeCases(t *testing.T) {
	var empty Confusion
	if empty.Accuracy() != 0 || empty.Precision() != 0 || empty.Recall() != 0 || empty.F1() != 0 {
		t.Error("empty confusion should report zeros")
	}
	// All negative predictions: precision undefined -> 0, recall 0.
	c := Confusion{TN: 5, FN: 5}
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Errorf("all-negative metrics: P=%v R=%v F1=%v", c.Precision(), c.Recall(), c.F1())
	}
	// Perfect.
	p := Confusion{TP: 3, TN: 7}
	if p.Accuracy() != 1 || p.F1() != 1 {
		t.Errorf("perfect metrics: acc=%v f1=%v", p.Accuracy(), p.F1())
	}
}

func TestConfusionAdd(t *testing.T) {
	a := Confusion{TP: 1, FP: 2, TN: 3, FN: 4}
	b := Confusion{TP: 10, FP: 20, TN: 30, FN: 40}
	a.Add(b)
	if a != (Confusion{TP: 11, FP: 22, TN: 33, FN: 44}) {
		t.Errorf("Add = %+v", a)
	}
}

func TestF1HarmonicMean(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, FN: 8} // P=0.8, R=0.5
	want := 2 * 0.8 * 0.5 / 1.3
	if got := c.F1(); math.Abs(got-want) > 1e-12 {
		t.Errorf("F1 = %v, want %v", got, want)
	}
}

func TestReportOf(t *testing.T) {
	r := ReportOf("SSTD", Confusion{TP: 1, TN: 1})
	if r.Method != "SSTD" || r.Accuracy != 1 {
		t.Errorf("ReportOf = %+v", r)
	}
}

func TestEvaluateDynamic(t *testing.T) {
	start := time.Date(2016, 9, 30, 12, 0, 0, 0, time.UTC)
	tr := &socialsensing.Trace{
		Name:    "eval",
		Start:   start,
		End:     start.Add(time.Hour),
		Sources: []socialsensing.Source{{ID: "s", Reliability: 1}},
		Claims:  []socialsensing.Claim{{ID: "c", Created: start}},
		Reports: []socialsensing.Report{
			{Source: "s", Claim: "c", Timestamp: start, Attitude: socialsensing.Agree, Independence: 1},
			{Source: "s", Claim: "c", Timestamp: start.Add(59 * time.Minute), Attitude: socialsensing.Agree, Independence: 1},
		},
		GroundTruth: map[socialsensing.ClaimID][]socialsensing.GroundTruthPoint{
			"c": {
				{Claim: "c", Time: start, Value: socialsensing.True},
				{Claim: "c", Time: start.Add(30 * time.Minute), Value: socialsensing.False},
			},
		},
	}
	// A perfect estimator.
	perfect := func(claim socialsensing.ClaimID, at time.Time) (socialsensing.TruthValue, bool) {
		v, ok := tr.TruthAt(claim, at)
		return v, ok
	}
	conf, err := EvaluateDynamic(tr, perfect, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if conf.Accuracy() != 1 {
		t.Errorf("perfect estimator accuracy = %v", conf.Accuracy())
	}
	if conf.Total() != 60 {
		t.Errorf("samples = %d, want 60 (minute grid over report span)", conf.Total())
	}
	// A static estimator stuck on True scores exactly the true-phase
	// fraction.
	static := func(socialsensing.ClaimID, time.Time) (socialsensing.TruthValue, bool) {
		return socialsensing.True, true
	}
	conf2, _ := EvaluateDynamic(tr, static, time.Minute)
	if got := conf2.Accuracy(); math.Abs(got-0.5) > 0.02 {
		t.Errorf("static estimator accuracy = %v, want ~0.5", got)
	}
	// Estimators may abstain.
	abstain := func(socialsensing.ClaimID, time.Time) (socialsensing.TruthValue, bool) {
		return socialsensing.False, false
	}
	conf3, _ := EvaluateDynamic(tr, abstain, time.Minute)
	if conf3.Total() != 0 {
		t.Errorf("abstaining estimator scored %d samples", conf3.Total())
	}
	if _, err := EvaluateDynamic(tr, perfect, 0); err == nil {
		t.Error("zero width accepted")
	}
}

func TestEvaluateDynamicPerClaim(t *testing.T) {
	start := time.Date(2016, 9, 30, 12, 0, 0, 0, time.UTC)
	tr := &socialsensing.Trace{
		Name:    "per-claim",
		Start:   start,
		End:     start.Add(time.Hour),
		Sources: []socialsensing.Source{{ID: "s", Reliability: 1}},
		Claims:  []socialsensing.Claim{{ID: "good", Created: start}, {ID: "bad", Created: start}},
		Reports: []socialsensing.Report{
			{Source: "s", Claim: "good", Timestamp: start, Attitude: socialsensing.Agree, Independence: 1},
			{Source: "s", Claim: "good", Timestamp: start.Add(9 * time.Minute), Attitude: socialsensing.Agree, Independence: 1},
			{Source: "s", Claim: "bad", Timestamp: start, Attitude: socialsensing.Agree, Independence: 1},
			{Source: "s", Claim: "bad", Timestamp: start.Add(9 * time.Minute), Attitude: socialsensing.Agree, Independence: 1},
		},
		GroundTruth: map[socialsensing.ClaimID][]socialsensing.GroundTruthPoint{
			"good": {{Claim: "good", Time: start, Value: socialsensing.True}},
			"bad":  {{Claim: "bad", Time: start, Value: socialsensing.False}},
		},
	}
	// An estimator that always says True: perfect on "good", zero on
	// "bad".
	alwaysTrue := func(socialsensing.ClaimID, time.Time) (socialsensing.TruthValue, bool) {
		return socialsensing.True, true
	}
	perClaim, total, err := EvaluateDynamicPerClaim(tr, alwaysTrue, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if perClaim["good"].Accuracy() != 1 {
		t.Errorf("good accuracy = %v", perClaim["good"].Accuracy())
	}
	if perClaim["bad"].Accuracy() != 0 {
		t.Errorf("bad accuracy = %v", perClaim["bad"].Accuracy())
	}
	want := perClaim["good"].Total() + perClaim["bad"].Total()
	if total.Total() != want {
		t.Errorf("pooled total = %d, want %d", total.Total(), want)
	}
	if total.Accuracy() != 0.5 {
		t.Errorf("pooled accuracy = %v", total.Accuracy())
	}
	if _, _, err := EvaluateDynamicPerClaim(tr, alwaysTrue, 0); err == nil {
		t.Error("zero width accepted")
	}
}
