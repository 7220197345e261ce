package baselines

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

// synthStatic builds a static-truth dataset: nClaims claims with known
// truth, nGood reliable sources (accuracy pGood) and nBad unreliable
// sources (accuracy pBad), every source voting on every claim.
func synthStatic(t *testing.T, seed int64, nClaims, nGood, nBad int, pGood, pBad float64) (*Dataset, map[socialsensing.ClaimID]socialsensing.TruthValue) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	truth := make(map[socialsensing.ClaimID]socialsensing.TruthValue, nClaims)
	var reports []socialsensing.Report
	base := time.Date(2013, 4, 15, 0, 0, 0, 0, time.UTC)
	for ci := 0; ci < nClaims; ci++ {
		c := socialsensing.ClaimID(fmt.Sprintf("c%02d", ci))
		if rng.Float64() < 0.5 {
			truth[c] = socialsensing.True
		} else {
			truth[c] = socialsensing.False
		}
		emit := func(s socialsensing.SourceID, acc float64) {
			correct := rng.Float64() < acc
			saysTrue := (truth[c] == socialsensing.True) == correct
			att := socialsensing.Disagree
			if saysTrue {
				att = socialsensing.Agree
			}
			reports = append(reports, socialsensing.Report{
				Source: s, Claim: c, Timestamp: base,
				Attitude: att, Uncertainty: 0.1, Independence: 0.9,
			})
		}
		for g := 0; g < nGood; g++ {
			emit(socialsensing.SourceID(fmt.Sprintf("good%02d", g)), pGood)
		}
		for b := 0; b < nBad; b++ {
			emit(socialsensing.SourceID(fmt.Sprintf("bad%02d", b)), pBad)
		}
	}
	return BuildDataset(reports), truth
}

func accuracyOf(est, truth map[socialsensing.ClaimID]socialsensing.TruthValue) float64 {
	correct := 0
	for c, v := range truth {
		if est[c] == v {
			correct++
		}
	}
	return float64(correct) / float64(len(truth))
}

// majorityVote is the floor the iterative methods are held to: a claim is
// true when more votes assert it than deny it.
func majorityVote(ds *Dataset) map[socialsensing.ClaimID]socialsensing.TruthValue {
	out := make(map[socialsensing.ClaimID]socialsensing.TruthValue, len(ds.Claims))
	for _, c := range ds.Claims {
		score := 0.0
		for _, vi := range ds.ClaimVotes(c) {
			if ds.Votes[vi].Value == socialsensing.True {
				score++
			} else {
				score--
			}
		}
		out[c] = decide(score)
	}
	return out
}

func allEstimators() []Estimator {
	return []Estimator{
		NewTruthFinder(),
		NewInvest(),
		NewThreeEstimates(),
		NewCATD(),
		NewRTD(),
	}
}

func TestBuildDataset(t *testing.T) {
	base := time.Now()
	reports := []socialsensing.Report{
		{Source: "a", Claim: "c1", Timestamp: base, Attitude: socialsensing.Agree, Independence: 1},
		{Source: "a", Claim: "c1", Timestamp: base, Attitude: socialsensing.Agree, Independence: 1},
		{Source: "b", Claim: "c1", Timestamp: base, Attitude: socialsensing.Disagree, Independence: 1},
		{Source: "b", Claim: "c2", Timestamp: base, Attitude: socialsensing.Agree, Independence: 0.5},
		// Cancelling pair produces no vote.
		{Source: "x", Claim: "c2", Timestamp: base, Attitude: socialsensing.Agree, Independence: 1},
		{Source: "x", Claim: "c2", Timestamp: base, Attitude: socialsensing.Disagree, Independence: 1},
	}
	ds := BuildDataset(reports)
	if len(ds.Votes) != 3 {
		t.Fatalf("votes = %d, want 3 (%+v)", len(ds.Votes), ds.Votes)
	}
	if len(ds.Sources) != 2 {
		t.Errorf("sources = %v, want [a b]", ds.Sources)
	}
	if len(ds.Claims) != 2 {
		t.Errorf("claims = %v, want 2", ds.Claims)
	}
	// a's two agrees collapse to one vote of weight 2.
	found := false
	for _, v := range ds.Votes {
		if v.Source == "a" && v.Claim == "c1" {
			found = true
			if v.Value != socialsensing.True || v.Weight != 2 {
				t.Errorf("aggregated vote = %+v", v)
			}
		}
	}
	if !found {
		t.Error("missing aggregated vote for a/c1")
	}
	if got := len(ds.ClaimVotes("c1")); got != 2 {
		t.Errorf("ClaimVotes(c1) = %d, want 2", got)
	}
	if got := len(ds.SourceVotes("b")); got != 2 {
		t.Errorf("SourceVotes(b) = %d, want 2", got)
	}
}

func TestBuildDatasetDeterministic(t *testing.T) {
	base := time.Now()
	var reports []socialsensing.Report
	for i := 0; i < 30; i++ {
		reports = append(reports, socialsensing.Report{
			Source: socialsensing.SourceID(fmt.Sprintf("s%d", i%7)), Claim: socialsensing.ClaimID(fmt.Sprintf("c%d", i%5)),
			Timestamp: base, Attitude: socialsensing.Agree, Independence: 1,
		})
	}
	a := BuildDataset(reports)
	b := BuildDataset(reports)
	if fmt.Sprint(a.Votes) != fmt.Sprint(b.Votes) {
		t.Error("BuildDataset is not deterministic")
	}
}

func TestAllEstimatorsOnCleanData(t *testing.T) {
	// With a strong reliable majority, every method must get everything
	// (or nearly everything) right.
	ds, truth := synthStatic(t, 1, 30, 12, 3, 0.95, 0.3)
	for _, est := range allEstimators() {
		t.Run(est.Name(), func(t *testing.T) {
			got := est.Estimate(ds)
			if acc := accuracyOf(got, truth); acc < 0.9 {
				t.Errorf("%s accuracy = %.2f on clean data, want >= 0.9", est.Name(), acc)
			}
		})
	}
}

func TestIterativeMethodsBeatVotingUnderNoise(t *testing.T) {
	// A small reliable core (5 sources at 0.95) is outnumbered by noisy,
	// slightly anti-leaning sources (15 at 0.45): plain voting degrades
	// while reliability-aware methods identify and up-weight the core.
	// Averaged over seeds, voting lands near 0.78 and the iterative
	// methods above 0.9.
	voteTot, iterTot := 0.0, make(map[string]float64)
	methods := []Estimator{NewTruthFinder(), NewRTD(), NewCATD(), NewThreeEstimates(), NewInvest()}
	const seeds = 5
	for seed := int64(0); seed < seeds; seed++ {
		ds, truth := synthStatic(t, seed, 60, 5, 15, 0.95, 0.45)
		voteTot += accuracyOf(majorityVote(ds), truth)
		for _, est := range methods {
			iterTot[est.Name()] += accuracyOf(est.Estimate(ds), truth)
		}
	}
	voteAcc := voteTot / seeds
	if voteAcc > 0.92 {
		t.Fatalf("scenario not discriminating: voting accuracy %.2f", voteAcc)
	}
	for _, est := range methods {
		acc := iterTot[est.Name()] / seeds
		if acc < voteAcc {
			t.Errorf("%s mean accuracy %.2f below majority voting %.2f", est.Name(), acc, voteAcc)
		}
		if acc < 0.85 {
			t.Errorf("%s mean accuracy %.2f too low", est.Name(), acc)
		}
	}
}

func TestCATDDiscountsLongTailSources(t *testing.T) {
	// One prolific accurate source vs many one-shot wrong sources: CATD's
	// confidence intervals should trust the prolific source.
	rng := rand.New(rand.NewSource(9))
	_ = rng
	base := time.Now()
	var reports []socialsensing.Report
	truth := make(map[socialsensing.ClaimID]socialsensing.TruthValue)
	for ci := 0; ci < 20; ci++ {
		c := socialsensing.ClaimID(fmt.Sprintf("c%02d", ci))
		truth[c] = socialsensing.True
		// The expert is right on every claim.
		reports = append(reports, socialsensing.Report{
			Source: "expert", Claim: c, Timestamp: base,
			Attitude: socialsensing.Agree, Independence: 1,
		})
		// Two distinct one-shot sources deny each claim.
		for j := 0; j < 2; j++ {
			reports = append(reports, socialsensing.Report{
				Source: socialsensing.SourceID(fmt.Sprintf("oneshot-%d-%d", ci, j)), Claim: c,
				Timestamp: base, Attitude: socialsensing.Disagree, Independence: 1,
			})
		}
	}
	ds := BuildDataset(reports)
	catdAcc := accuracyOf(NewCATD().Estimate(ds), truth)
	voteAcc := accuracyOf(majorityVote(ds), truth)
	if catdAcc <= voteAcc {
		t.Errorf("CATD %.2f should beat voting %.2f on long-tail data", catdAcc, voteAcc)
	}
	if catdAcc < 0.9 {
		t.Errorf("CATD accuracy = %.2f, want >= 0.9", catdAcc)
	}
}

func TestRTDDampensMisinformationCascade(t *testing.T) {
	// A large echo cascade (many weak copies) pushes the false side;
	// a handful of independent strong reports hold the true side. RTD's
	// dampened sum should resist the cascade better than weighted voting.
	base := time.Now()
	var reports []socialsensing.Report
	truth := map[socialsensing.ClaimID]socialsensing.TruthValue{}
	for ci := 0; ci < 10; ci++ {
		c := socialsensing.ClaimID(fmt.Sprintf("c%02d", ci))
		truth[c] = socialsensing.True
		for j := 0; j < 4; j++ { // independent confirmations
			reports = append(reports, socialsensing.Report{
				Source: socialsensing.SourceID(fmt.Sprintf("witness%d", j)), Claim: c,
				Timestamp: base, Attitude: socialsensing.Agree, Independence: 0.95,
			})
		}
		for j := 0; j < 9; j++ { // retweet cascade of the false version
			reports = append(reports, socialsensing.Report{
				Source: socialsensing.SourceID(fmt.Sprintf("echo%d", j)), Claim: c,
				Timestamp: base, Attitude: socialsensing.Disagree, Independence: 0.25,
			})
		}
	}
	ds := BuildDataset(reports)
	rtdAcc := accuracyOf(NewRTD().Estimate(ds), truth)
	if rtdAcc < 0.9 {
		t.Errorf("RTD accuracy = %.2f under cascade, want >= 0.9", rtdAcc)
	}
	plain := accuracyOf(majorityVote(ds), truth)
	if rtdAcc < plain {
		t.Errorf("RTD %.2f below plain voting %.2f", rtdAcc, plain)
	}
}

func TestEstimatorsHandleEmptyDataset(t *testing.T) {
	ds := BuildDataset(nil)
	for _, est := range allEstimators() {
		got := est.Estimate(ds)
		if len(got) != 0 {
			t.Errorf("%s on empty dataset returned %v", est.Name(), got)
		}
	}
}

func TestEstimatorNamesDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for _, est := range allEstimators() {
		if seen[est.Name()] {
			t.Errorf("duplicate estimator name %q", est.Name())
		}
		seen[est.Name()] = true
	}
}

func TestDynaTDTracksEvolvingTruth(t *testing.T) {
	d := NewDynaTD()
	base := time.Now()
	claim := socialsensing.ClaimID("score-change")
	var last map[socialsensing.ClaimID]socialsensing.TruthValue
	rng := rand.New(rand.NewSource(3))
	mkInterval := func(truthTrue bool, n int) []socialsensing.Report {
		var rs []socialsensing.Report
		for i := 0; i < n; i++ {
			correct := rng.Float64() < 0.85
			att := socialsensing.Disagree
			if truthTrue == correct {
				att = socialsensing.Agree
			}
			rs = append(rs, socialsensing.Report{
				Source: socialsensing.SourceID(fmt.Sprintf("s%d", i%10)), Claim: claim,
				Timestamp: base, Attitude: att, Uncertainty: 0.1, Independence: 0.9,
			})
		}
		return rs
	}
	// True phase.
	for k := 0; k < 10; k++ {
		last = d.ProcessInterval(mkInterval(true, 12))
	}
	if last[claim] != socialsensing.True {
		t.Fatal("DynaTD failed to learn the true phase")
	}
	// Flip to false; it should track within a few intervals.
	flipAfter := -1
	for k := 0; k < 10; k++ {
		last = d.ProcessInterval(mkInterval(false, 12))
		if last[claim] == socialsensing.False && flipAfter == -1 {
			flipAfter = k
		}
	}
	if flipAfter == -1 {
		t.Error("DynaTD never tracked the truth flip")
	} else if flipAfter > 5 {
		t.Errorf("DynaTD took %d intervals to flip, want <= 5", flipAfter)
	}
}

func TestDynaTDReset(t *testing.T) {
	d := NewDynaTD()
	base := time.Now()
	d.ProcessInterval([]socialsensing.Report{{
		Source: "s", Claim: "c", Timestamp: base,
		Attitude: socialsensing.Agree, Independence: 1,
	}})
	d.Reset()
	got := d.ProcessInterval(nil)
	if len(got) != 0 {
		t.Errorf("after Reset, estimates = %v, want none", got)
	}
}

func TestDynaTDPersistenceCarriesThroughQuietIntervals(t *testing.T) {
	d := NewDynaTD()
	base := time.Now()
	for k := 0; k < 5; k++ {
		d.ProcessInterval([]socialsensing.Report{{
			Source: "s", Claim: "c", Timestamp: base,
			Attitude: socialsensing.Agree, Uncertainty: 0, Independence: 1,
		}})
	}
	// No reports for a while: estimate must persist.
	for k := 0; k < 3; k++ {
		got := d.ProcessInterval(nil)
		if got["c"] != socialsensing.True {
			t.Fatalf("quiet interval %d lost the estimate: %v", k, got["c"])
		}
	}
}

func TestChiSquareQuantileSane(t *testing.T) {
	// Median of chi-square(k) is roughly k - 2/3 for moderate k.
	for _, k := range []float64{1, 2, 5, 10, 50} {
		med := chiSquareQuantile(0.5, k)
		if med <= 0 || med > k {
			t.Errorf("chi2 median(k=%v) = %v out of (0, k]", k, med)
		}
	}
	// Quantiles increase with p.
	if !(chiSquareQuantile(0.025, 10) < chiSquareQuantile(0.5, 10) &&
		chiSquareQuantile(0.5, 10) < chiSquareQuantile(0.975, 10)) {
		t.Error("chi2 quantiles not monotone in p")
	}
	// And with k.
	if !(chiSquareQuantile(0.5, 2) < chiSquareQuantile(0.5, 20)) {
		t.Error("chi2 quantiles not monotone in k")
	}
}

func TestNormalQuantile(t *testing.T) {
	tests := []struct {
		p, want float64
	}{
		{0.5, 0}, {0.975, 1.959964}, {0.025, -1.959964}, {0.841345, 1.0},
	}
	for _, tt := range tests {
		got := normalQuantile(tt.p)
		if diff := got - tt.want; diff > 1e-3 || diff < -1e-3 {
			t.Errorf("normalQuantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}
