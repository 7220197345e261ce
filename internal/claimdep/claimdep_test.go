package claimdep

import (
	"math"
	"math/rand"
	"testing"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

// mkSeries builds a noisy evidence series from a base signal.
func mkSeries(base []float64, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = v + rng.NormFloat64()*noise
	}
	return out
}

func squareWave(n, period int, amp float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		if (i/period)%2 == 0 {
			out[i] = amp
		} else {
			out[i] = -amp
		}
	}
	return out
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	r, n := pearson(a, b)
	if math.Abs(r-1) > 1e-12 || n != 5 {
		t.Errorf("perfect correlation = %v (n=%d)", r, n)
	}
	inv := []float64{-1, -2, -3, -4, -5}
	r, _ = pearson(a, inv)
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anti-correlation = %v", r)
	}
	constant := []float64{3, 3, 3, 3, 3}
	if r, _ := pearson(a, constant); r != 0 {
		t.Errorf("constant series correlation = %v, want 0", r)
	}
	// Shared zeros are skipped.
	az := []float64{0, 0, 1, 2}
	bz := []float64{0, 0, 2, 4}
	if _, n := pearson(az, bz); n != 2 {
		t.Errorf("shared-zero support = %d, want 2", n)
	}
	if r, n := pearson([]float64{1}, []float64{1}); r != 0 || n != 1 {
		t.Errorf("degenerate input = %v, %d", r, n)
	}
}

func TestEstimateGraphFindsCorrelatedPairs(t *testing.T) {
	base := squareWave(60, 10, 3)
	series := map[socialsensing.ClaimID][]float64{
		"a":     mkSeries(base, 0.5, 1),
		"b":     mkSeries(base, 0.5, 2), // correlated with a
		"anti":  mkSeries(negate(base), 0.5, 3),
		"indep": mkSeries(squareWave(60, 7, 3), 0.5, 4),
	}
	g, err := EstimateGraph(series, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	found := func(x, y socialsensing.ClaimID) *Correlation {
		for _, c := range g.neighbors[x] {
			if c.B == y {
				return &c
			}
		}
		return nil
	}
	ab := found("a", "b")
	if ab == nil || ab.R < 0.8 {
		t.Fatalf("a-b correlation missing or weak: %+v", ab)
	}
	aAnti := found("a", "anti")
	if aAnti == nil || aAnti.R > -0.8 {
		t.Fatalf("a-anti correlation missing or weak: %+v", aAnti)
	}
	if len(g.Edges()) == 0 {
		t.Fatal("no edges")
	}
	// Symmetry.
	if ba := found("b", "a"); ba == nil || math.Abs(ba.R-ab.R) > 1e-12 {
		t.Errorf("graph not symmetric: %+v vs %+v", ab, ba)
	}
}

func negate(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = -v
	}
	return out
}

func TestEstimateGraphThresholds(t *testing.T) {
	base := squareWave(40, 8, 2)
	series := map[socialsensing.ClaimID][]float64{
		"a": mkSeries(base, 0.2, 1),
		"b": mkSeries(base, 8.0, 2), // drowned in noise: weak correlation
	}
	cfg := DefaultConfig()
	cfg.MinAbsCorrelation = 0.9
	g, err := EstimateGraph(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges()) != 0 {
		t.Errorf("weak pair survived threshold: %+v", g.Edges())
	}
	// Short overlap is rejected by MinSupport.
	cfg = DefaultConfig()
	cfg.MinSupport = 100
	g, _ = EstimateGraph(series, cfg)
	if len(g.Edges()) != 0 {
		t.Error("insufficient support accepted")
	}
}

func TestEstimateGraphValidation(t *testing.T) {
	if _, err := EstimateGraph(nil, DefaultConfig()); err == nil {
		t.Error("empty input accepted")
	}
	bad := DefaultConfig()
	bad.Blend = 1
	if _, err := EstimateGraph(map[socialsensing.ClaimID][]float64{"a": {1}}, bad); err == nil {
		t.Error("blend=1 accepted")
	}
	bad = DefaultConfig()
	bad.MinSupport = 1
	if _, err := EstimateGraph(map[socialsensing.ClaimID][]float64{"a": {1}}, bad); err == nil {
		t.Error("support=1 accepted")
	}
}

func TestMaxNeighborsBounds(t *testing.T) {
	base := squareWave(60, 10, 3)
	series := make(map[socialsensing.ClaimID][]float64)
	for i := 0; i < 10; i++ {
		series[socialsensing.ClaimID(rune('a'+i))] = mkSeries(base, 0.3, int64(i))
	}
	cfg := DefaultConfig()
	cfg.MaxNeighbors = 2
	g, err := EstimateGraph(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := range series {
		if n := len(g.neighbors[id]); n > 2 {
			t.Errorf("claim %s has %d neighbours, want <= 2", id, n)
		}
	}
}

func TestSmoothPullsTowardNeighbors(t *testing.T) {
	base := squareWave(60, 10, 3)
	series := map[socialsensing.ClaimID][]float64{
		"strong": mkSeries(base, 0.3, 1),
		"twin":   mkSeries(base, 0.3, 2),
	}
	g, err := EstimateGraph(series, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// strong is confident; twin is uncertain at t=0.
	posteriors := map[socialsensing.ClaimID][]float64{
		"strong": {0.95, 0.9},
		"twin":   {0.5, 0.5},
	}
	smoothed := g.Smooth(posteriors)
	if smoothed["twin"][0] <= 0.5 {
		t.Errorf("twin posterior not pulled up: %v", smoothed["twin"])
	}
	// The confident claim moves only slightly.
	if math.Abs(smoothed["strong"][0]-0.95) > 0.15 {
		t.Errorf("strong posterior moved too much: %v", smoothed["strong"][0])
	}
	// Inputs must not be mutated.
	if posteriors["twin"][0] != 0.5 {
		t.Error("Smooth mutated its input")
	}
}

func TestSmoothFlipsForAntiCorrelation(t *testing.T) {
	base := squareWave(60, 10, 3)
	series := map[socialsensing.ClaimID][]float64{
		"a":    mkSeries(base, 0.3, 1),
		"anti": mkSeries(negate(base), 0.3, 2),
	}
	g, err := EstimateGraph(series, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	posteriors := map[socialsensing.ClaimID][]float64{
		"a":    {0.5},
		"anti": {0.95}, // anti is confidently true => a should lean false
	}
	smoothed := g.Smooth(posteriors)
	if smoothed["a"][0] >= 0.5 {
		t.Errorf("anti-correlated evidence did not push down: %v", smoothed["a"][0])
	}
}

func TestSmoothWithoutNeighborsIsIdentity(t *testing.T) {
	series := map[socialsensing.ClaimID][]float64{
		"lonely": squareWave(40, 5, 2),
		"other":  squareWave(40, 7, 2),
	}
	cfg := DefaultConfig()
	cfg.MinAbsCorrelation = 0.99
	g, err := EstimateGraph(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	posteriors := map[socialsensing.ClaimID][]float64{"lonely": {0.2, 0.8}}
	smoothed := g.Smooth(posteriors)
	for i, v := range smoothed["lonely"] {
		if v != posteriors["lonely"][i] {
			t.Errorf("identity smoothing changed value %d: %v", i, v)
		}
	}
}

func TestSmoothHandlesLengthMismatch(t *testing.T) {
	base := squareWave(60, 10, 3)
	series := map[socialsensing.ClaimID][]float64{
		"a": mkSeries(base, 0.3, 1),
		"b": mkSeries(base, 0.3, 2),
	}
	g, err := EstimateGraph(series, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	posteriors := map[socialsensing.ClaimID][]float64{
		"a": {0.5, 0.5, 0.5},
		"b": {0.9}, // shorter: only t=0 contributes
	}
	smoothed := g.Smooth(posteriors)
	if smoothed["a"][0] <= 0.5 {
		t.Error("t=0 neighbour evidence ignored")
	}
	if smoothed["a"][1] != 0.5 || smoothed["a"][2] != 0.5 {
		t.Error("missing neighbour estimates should leave posterior unchanged")
	}
}

func TestThreshold(t *testing.T) {
	got := Threshold(map[socialsensing.ClaimID][]float64{
		"c": {0.2, 0.5, 0.9},
	})
	want := []socialsensing.TruthValue{socialsensing.False, socialsensing.True, socialsensing.True}
	for i, v := range want {
		if got["c"][i] != v {
			t.Errorf("threshold[%d] = %v, want %v", i, got["c"][i], v)
		}
	}
}
