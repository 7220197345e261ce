package socialsensing

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func ts(sec int) time.Time {
	return time.Date(2016, 11, 28, 7, 0, 0, 0, time.UTC).Add(time.Duration(sec) * time.Second)
}

func validTrace() *Trace {
	return &Trace{
		Name:    "unit",
		Start:   ts(0),
		End:     ts(100),
		Sources: []Source{{ID: "s1", Reliability: 0.9}, {ID: "s2", Reliability: 0.4}},
		Claims:  []Claim{{ID: "c1", Topic: "shooting at OSU", Created: ts(0)}},
		Reports: []Report{
			{Source: "s1", Claim: "c1", Timestamp: ts(1), Attitude: Agree, Uncertainty: 0.1, Independence: 1},
			{Source: "s2", Claim: "c1", Timestamp: ts(2), Attitude: Disagree, Uncertainty: 0.5, Independence: 0.5},
		},
		GroundTruth: map[ClaimID][]GroundTruthPoint{
			"c1": {
				{Claim: "c1", Time: ts(0), Value: True},
				{Claim: "c1", Time: ts(50), Value: False},
			},
		},
	}
}

func TestContributionScore(t *testing.T) {
	tests := []struct {
		name string
		r    Report
		want float64
	}{
		{"agree full confidence", Report{Attitude: Agree, Uncertainty: 0, Independence: 1}, 1},
		{"disagree full confidence", Report{Attitude: Disagree, Uncertainty: 0, Independence: 1}, -1},
		{"no stance contributes nothing", Report{Attitude: NoReport, Uncertainty: 0, Independence: 1}, 0},
		{"uncertainty damps", Report{Attitude: Agree, Uncertainty: 0.75, Independence: 1}, 0.25},
		{"dependence damps", Report{Attitude: Agree, Uncertainty: 0, Independence: 0.2}, 0.2},
		{"combined", Report{Attitude: Disagree, Uncertainty: 0.5, Independence: 0.5}, -0.25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.r.ContributionScore(); got != tt.want {
				t.Errorf("ContributionScore() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestContributionScoreBounds(t *testing.T) {
	// |CS| <= 1 for any valid report; sign follows attitude.
	f := func(unc, ind float64, att int8) bool {
		u := clamp01(unc)
		in := clamp01(ind)
		var a Attitude
		switch int(att) % 3 {
		case 0:
			a = NoReport
		case 1:
			a = Agree
		default:
			a = Disagree
		}
		cs := Report{Attitude: a, Uncertainty: u, Independence: in}.ContributionScore()
		if cs > 1 || cs < -1 {
			return false
		}
		switch a {
		case Agree:
			return cs >= 0
		case Disagree:
			return cs <= 0
		default:
			return cs == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		x = -x
	}
	for x > 1 {
		x /= 2
	}
	return x
}

func TestTruthValueString(t *testing.T) {
	if True.String() != "true" || False.String() != "false" {
		t.Errorf("TruthValue.String() wrong: %q %q", True, False)
	}
}

func TestTruthAt(t *testing.T) {
	tr := validTrace()
	tests := []struct {
		at   time.Time
		want TruthValue
	}{
		{ts(0), True},
		{ts(49), True},
		{ts(50), False},
		{ts(99), False},
	}
	for _, tt := range tests {
		got, ok := tr.TruthAt("c1", tt.at)
		if !ok {
			t.Fatalf("TruthAt(c1, %v): no label", tt.at)
		}
		if got != tt.want {
			t.Errorf("TruthAt(c1, %v) = %v, want %v", tt.at, got, tt.want)
		}
	}
	if _, ok := tr.TruthAt("missing", ts(0)); ok {
		t.Error("TruthAt(missing) should report no label")
	}
}

func TestTruthAtBeforeFirstLabel(t *testing.T) {
	tr := validTrace()
	got, ok := tr.TruthAt("c1", ts(-10))
	if !ok || got != True {
		t.Errorf("TruthAt before first label = %v,%v; want True,true", got, ok)
	}
}

func TestReportsByClaim(t *testing.T) {
	tr := validTrace()
	by := tr.ReportsByClaim()
	if len(by) != 1 {
		t.Fatalf("ReportsByClaim: %d groups, want 1", len(by))
	}
	if got := len(by["c1"]); got != 2 {
		t.Errorf("c1 group has %d reports, want 2", got)
	}
	if by["c1"][0].Source != "s1" || by["c1"][1].Source != "s2" {
		t.Error("ReportsByClaim did not preserve time order")
	}
}

func TestValidateOK(t *testing.T) {
	if err := validTrace().Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

func TestValidateFailures(t *testing.T) {
	type mutation struct {
		name   string
		mutate func(*Trace)
	}
	tests := []mutation{
		{"no name", func(tr *Trace) { tr.Name = "" }},
		{"end before start", func(tr *Trace) { tr.End = tr.Start.Add(-time.Second) }},
		{"duplicate claim", func(tr *Trace) { tr.Claims = append(tr.Claims, tr.Claims[0]) }},
		{"duplicate source", func(tr *Trace) { tr.Sources = append(tr.Sources, tr.Sources[0]) }},
		{"bad reliability", func(tr *Trace) { tr.Sources[0].Reliability = 1.5 }},
		{"unknown claim", func(tr *Trace) { tr.Reports[0].Claim = "nope" }},
		{"unknown source", func(tr *Trace) { tr.Reports[0].Source = "nope" }},
		{"time disorder", func(tr *Trace) { tr.Reports[1].Timestamp = ts(-5) }},
		{"bad uncertainty", func(tr *Trace) { tr.Reports[0].Uncertainty = 2 }},
		{"bad independence", func(tr *Trace) { tr.Reports[0].Independence = -0.1 }},
		{"bad attitude", func(tr *Trace) { tr.Reports[0].Attitude = 3 }},
	}
	// NaN fails every ordered comparison, so a range check written as
	// x < 0 || x > 1 lets it through; the infinities ride along.
	for name, x := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		tests = append(tests,
			mutation{name + " reliability", func(tr *Trace) { tr.Sources[0].Reliability = x }},
			mutation{name + " uncertainty", func(tr *Trace) { tr.Reports[0].Uncertainty = x }},
			mutation{name + " independence", func(tr *Trace) { tr.Reports[0].Independence = x }},
		)
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := validTrace()
			tt.mutate(tr)
			if err := tr.Validate(); err == nil {
				t.Error("Validate() accepted an invalid trace")
			}
		})
	}
}

func TestSummarize(t *testing.T) {
	st := validTrace().Summarize()
	want := Stats{Name: "unit", Reports: 2, Sources: 2, Claims: 1, Duration: 100 * time.Second}
	if st != want {
		t.Errorf("Summarize() = %+v, want %+v", st, want)
	}
}
