package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

// synthClaim pushes reports for one claim whose ground truth flips at
// flipMinute: before it, most sources agree; after it, most disagree.
// Reports carry noise: a fraction of sources report the wrong value.
func synthClaim(e *Engine, claim socialsensing.ClaimID, minutes, flipMinute int, noise float64, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for m := 0; m < minutes; m++ {
		truthTrue := m < flipMinute
		for k := 0; k < 8; k++ {
			correct := rng.Float64() >= noise
			att := socialsensing.Disagree
			if truthTrue == correct {
				att = socialsensing.Agree
			}
			r := socialsensing.Report{
				Source:       socialsensing.SourceID("s"),
				Claim:        claim,
				Timestamp:    origin().Add(time.Duration(m) * time.Minute),
				Attitude:     att,
				Uncertainty:  0.1 + 0.2*rng.Float64(),
				Independence: 0.9,
			}
			if err := e.Ingest(r); err != nil {
				return err
			}
		}
	}
	return nil
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestIngestRejectsNonFiniteScore: a report whose contribution score is
// NaN or infinite is refused at the door — it creates no claim state and
// leaves the claim's ACS series finite for the reports that follow.
func TestIngestRejectsNonFiniteScore(t *testing.T) {
	good := socialsensing.Report{
		Source: "s", Claim: "c1", Timestamp: origin(),
		Attitude: socialsensing.Agree, Uncertainty: 0.2, Independence: 0.9,
	}
	for name, x := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		for field, set := range map[string]func(*socialsensing.Report){
			"uncertainty":  func(r *socialsensing.Report) { r.Uncertainty = x },
			"independence": func(r *socialsensing.Report) { r.Independence = x },
		} {
			t.Run(name+" "+field, func(t *testing.T) {
				e := newTestEngine(t)
				bad := good
				set(&bad)
				if err := e.Ingest(bad); err == nil {
					t.Fatal("non-finite report accepted")
				}
				if n, claims := reportCount(e), e.Claims(); n != 0 || len(claims) != 0 {
					t.Fatalf("rejected report left state behind: %d reports, claims %v", n, claims)
				}
				// Five intervals of good reports around a second bad one:
				// past the 3-interval window a poisoned sum would still
				// show, since NaN - NaN is NaN.
				for m := 0; m < 5; m++ {
					r := good
					r.Timestamp = origin().Add(time.Duration(m) * time.Minute)
					if err := e.Ingest(r); err != nil {
						t.Fatal(err)
					}
					if m == 0 {
						_ = e.Ingest(bad)
					}
				}
				for i, v := range e.ACSSeries("c1") {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("ACS[%d] = %v after a rejected report", i, v)
					}
				}
			})
		}
	}
}

// TestIngestRejectsScoreOverOne: a score of magnitude over 1, out of the
// fixed point's range, is refused with an error naming the claim and the
// report's position among the claim's reports, and leaves no trace.
func TestIngestRejectsScoreOverOne(t *testing.T) {
	e := newTestEngine(t)
	good := socialsensing.Report{Source: "s", Claim: "c1", Timestamp: origin(), Attitude: socialsensing.Agree, Independence: 1}
	for i := 0; i < 3; i++ {
		if err := e.Ingest(good); err != nil {
			t.Fatal(err)
		}
	}
	before := e.ACSSeries("c1")
	for _, bad := range []socialsensing.Report{
		{Claim: "c1", Timestamp: origin(), Attitude: socialsensing.Agree, Independence: 1.5},
		{Claim: "c1", Timestamp: origin(), Attitude: socialsensing.Disagree, Uncertainty: -0.5, Independence: 1},
	} {
		err := e.Ingest(bad)
		if err == nil || !strings.Contains(err.Error(), "claim c1 report 3") {
			t.Errorf("score %v: Ingest error %v, want one naming claim c1 report 3", bad.ContributionScore(), err)
		}
	}
	if n, after := reportCount(e), e.ACSSeries("c1"); n != 3 || !slices.Equal(after, before) {
		t.Errorf("refused reports left state behind: %d reports, series %v (was %v)", n, after, before)
	}
	err := e.Ingest(socialsensing.Report{Claim: "c2", Timestamp: origin(), Attitude: socialsensing.Agree, Independence: 2})
	if err == nil || !strings.Contains(err.Error(), "claim c2 report 0") {
		t.Errorf("first report of a claim: Ingest error %v, want one naming claim c2 report 0", err)
	}
	if claims := e.Claims(); len(claims) != 1 {
		t.Errorf("a refused first report created its claim: %v", claims)
	}
}

func TestEngineRecoversTruthFlip(t *testing.T) {
	e := newTestEngine(t)
	const minutes, flip = 60, 30
	if err := synthClaim(e, "c1", minutes, flip, 0.15, 42); err != nil {
		t.Fatal(err)
	}
	est, err := e.DecodeClaim("c1")
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != minutes {
		t.Fatalf("got %d estimates, want %d", len(est), minutes)
	}
	correct := 0
	for i, es := range est {
		if at := origin().Add(time.Duration(i) * e.cfg.ACS.Interval); !es.Start.Equal(at) {
			t.Fatalf("estimate %d starts at %v, want %v", i, es.Start, at)
		}
		want := socialsensing.False
		if i < flip {
			want = socialsensing.True
		}
		if es.Value == want {
			correct++
		}
	}
	if acc := float64(correct) / float64(minutes); acc < 0.85 {
		t.Errorf("flip recovery accuracy = %.2f, want >= 0.85", acc)
	}
}

func TestEngineRobustToNoiseSpike(t *testing.T) {
	// A brief burst of misinformation (3 minutes of majority-wrong
	// reports inside a long true period) should not flip the decoded
	// truth for long: HMM stickiness must smooth it out compared to
	// per-interval voting.
	e := newTestEngine(t)
	rng := rand.New(rand.NewSource(7))
	const minutes = 60
	for m := 0; m < minutes; m++ {
		noise := 0.1
		if m >= 30 && m < 33 {
			noise = 0.9 // misinformation burst
		}
		for k := 0; k < 6; k++ {
			att := socialsensing.Agree
			if rng.Float64() < noise {
				att = socialsensing.Disagree
			}
			r := socialsensing.Report{
				Source: "s", Claim: "c", Attitude: att,
				Timestamp:   origin().Add(time.Duration(m) * time.Minute),
				Uncertainty: 0.2, Independence: 0.9,
			}
			if err := e.Ingest(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	est, err := e.DecodeClaim("c")
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for _, es := range est {
		if es.Value != socialsensing.True {
			wrong++
		}
	}
	if wrong > 8 {
		t.Errorf("noise spike flipped %d/%d intervals, want few", wrong, len(est))
	}
}

func TestEngineUnknownClaim(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.DecodeClaim("nope"); err == nil {
		t.Error("unknown claim decoded without error")
	}
}

func TestEngineClaimsAndCounts(t *testing.T) {
	e := newTestEngine(t)
	if err := synthClaim(e, "b", 5, 2, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := synthClaim(e, "a", 5, 2, 0, 1); err != nil {
		t.Fatal(err)
	}
	ids := e.Claims()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("Claims() = %v, want sorted [a b]", ids)
	}
	if got := reportCount(e); got != 80 {
		t.Errorf("ReportCount() = %d, want 80", got)
	}
	if s := e.ACSSeries("a"); len(s) != 5 {
		t.Errorf("ACSSeries(a) length = %d, want 5", len(s))
	}
	if s := e.ACSSeries("zzz"); s != nil {
		t.Errorf("ACSSeries(zzz) = %v, want nil", s)
	}
}

// TestEngineDecodeAllMatchesDecodeClaim: DecodeAll returns, for every
// claim, the timeline DecodeClaim decodes for it on an engine fed the
// same reports.
func TestEngineDecodeAllMatchesDecodeClaim(t *testing.T) {
	all, one := newTestEngine(t), newTestEngine(t)
	for _, e := range []*Engine{all, one} {
		for c := 0; c < 6; c++ {
			claim := socialsensing.ClaimID(rune('a' + c))
			if err := synthClaim(e, claim, 40, 10+c*4, 0.1, int64(c)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := all.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("DecodeAll decoded %d claims, want 6", len(got))
	}
	for _, id := range one.Claims() {
		want, err := one.DecodeClaim(id)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got[id], want, func(a, b Estimate) bool {
			return a.Start.Equal(b.Start) && a.Value == b.Value
		}) {
			t.Errorf("claim %s: DecodeAll = %v, DecodeClaim = %v", id, got[id], want)
		}
	}
}

func TestEngineConfigValidation(t *testing.T) {
	if _, err := NewEngine(Config{ACS: DefaultACSConfig(), Decoder: DefaultDecoderConfig()}); err == nil {
		t.Error("zero origin accepted")
	}
	cfg := DefaultConfig(origin())
	cfg.ACS.Interval = -1
	if _, err := NewEngine(cfg); err == nil {
		t.Error("negative interval accepted")
	}
	cfg = DefaultConfig(origin())
	cfg.Decoder.Thresholds = []float64{2, 0.5}
	if _, err := NewEngine(cfg); err == nil {
		t.Error("descending thresholds accepted")
	}
}

func TestTruthAt(t *testing.T) {
	est := []Estimate{
		{Start: origin(), Value: socialsensing.True},
		{Start: origin().Add(time.Minute), Value: socialsensing.False},
	}
	if v, ok := TruthAt(est, origin().Add(30*time.Second)); !ok || v != socialsensing.True {
		t.Errorf("TruthAt mid-first-interval = %v,%v", v, ok)
	}
	if v, ok := TruthAt(est, origin().Add(2*time.Minute)); !ok || v != socialsensing.False {
		t.Errorf("TruthAt after flip = %v,%v", v, ok)
	}
	if v, ok := TruthAt(est, origin().Add(-time.Hour)); !ok || v != socialsensing.True {
		t.Errorf("TruthAt before start = %v,%v", v, ok)
	}
	if _, ok := TruthAt(nil, origin()); ok {
		t.Error("TruthAt(nil) reported ok")
	}
}

func TestDecoderEmptySeries(t *testing.T) {
	d, err := NewDecoder(DefaultDecoderConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Decode(nil)
	if err != nil || got != nil {
		t.Errorf("Decode(nil) = %v, %v", got, err)
	}
}

func TestDecoderConstantPositiveSeries(t *testing.T) {
	d, _ := NewDecoder(DefaultDecoderConfig())
	series := make([]float64, 20)
	for i := range series {
		series[i] = 5
	}
	truth, err := d.Decode(series)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range truth {
		if v != socialsensing.True {
			t.Fatalf("interval %d decoded %v for strongly positive ACS", i, v)
		}
	}
}

func TestDecoderConstantNegativeSeries(t *testing.T) {
	d, _ := NewDecoder(DefaultDecoderConfig())
	series := make([]float64, 20)
	for i := range series {
		series[i] = -5
	}
	truth, err := d.Decode(series)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range truth {
		if v != socialsensing.False {
			t.Fatalf("interval %d decoded %v for strongly negative ACS", i, v)
		}
	}
}
