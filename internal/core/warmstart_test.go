package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/social-sensing/sstd/internal/obs"
)

// flipSeries is a noisy ACS ramp: positive evidence that flips negative at
// flip, the canonical truth-change shape the decoder targets.
func flipSeries(n, flip int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		v := 4.0
		if i >= flip {
			v = -4.0
		}
		out[i] = v + rng.NormFloat64()
	}
	return out
}

func TestTrainWarmIterationsDrop(t *testing.T) {
	d, err := NewDecoder(DefaultDecoderConfig())
	if err != nil {
		t.Fatal(err)
	}
	series := flipSeries(80, 40, 9)
	cold, resCold, err := d.TrainWarmScratch(NewDecodeScratch(), series, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resCold.WarmStarted {
		t.Fatal("cold train reported WarmStarted")
	}

	// The same series again, seeded from its own fit: the parameters are
	// already at the EM fixed point, so the warm run should stop after a
	// single confirming iteration.
	_, resSame, err := d.TrainWarmScratch(NewDecodeScratch(), series, cold)
	if err != nil {
		t.Fatal(err)
	}
	if !resSame.WarmStarted || !resSame.Converged {
		t.Fatalf("warm refit on identical series: %+v", resSame)
	}
	if resSame.Iterations >= resCold.Iterations {
		t.Errorf("warm refit took %d iterations, cold took %d", resSame.Iterations, resCold.Iterations)
	}

	// A grown series (the streaming case): warm must beat a fresh cold fit
	// of the same data.
	grown := append(append([]float64(nil), series...), flipSeries(8, 0, 10)...)
	for i := len(series); i < len(grown); i++ {
		grown[i] = -4 // truth stays flipped; the stream just grew
	}
	_, resWarm, err := d.TrainWarmScratch(NewDecodeScratch(), grown, cold)
	if err != nil {
		t.Fatal(err)
	}
	_, resCold2, err := d.TrainWarmScratch(NewDecodeScratch(), grown, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resWarm.WarmStarted {
		t.Fatal("grown-series refit did not warm start")
	}
	if resWarm.Iterations >= resCold2.Iterations {
		t.Errorf("warm refit on grown series took %d iterations, cold %d", resWarm.Iterations, resCold2.Iterations)
	}
}

func TestTrainWarmIncompatibleSeedFallsBackCold(t *testing.T) {
	d, err := NewDecoder(DefaultDecoderConfig())
	if err != nil {
		t.Fatal(err)
	}
	series := flipSeries(40, 20, 3)
	// A seed over another alphabet (7 symbols, not 5) must be ignored.
	od, err := NewDecoder(DecoderConfig{Thresholds: []float64{0.5, 1, 2}, Train: DefaultDecoderConfig().Train})
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := od.TrainWarmScratch(NewDecodeScratch(), series, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, res, err := d.TrainWarmScratch(NewDecodeScratch(), series, other)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmStarted {
		t.Error("alphabet-mismatched seed was warm started")
	}
	if m.Discrete == nil || m.Discrete.Symbols() != 5 {
		t.Errorf("fallback produced wrong model: %+v", m)
	}
}

func TestStreamingWarmColdTimelinesIdentical(t *testing.T) {
	cfgCold := DefaultDecoderConfig()
	cfgWarm := DefaultDecoderConfig()
	cfgWarm.Train.WarmStart = true
	sCold, err := NewStreamingDecoder(cfgCold, 4)
	if err != nil {
		t.Fatal(err)
	}
	sWarm, err := NewStreamingDecoder(cfgWarm, 4)
	if err != nil {
		t.Fatal(err)
	}
	series := flipSeries(90, 45, 21)
	for i, v := range series {
		vc, err := sCold.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		vw, err := sWarm.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		if vc != vw {
			t.Fatalf("append %d: warm estimate %v differs from cold %v", i, vw, vc)
		}
	}
	// The window each decodes last, warm-started and cold.
	wCold, err := sCold.decodeWindow()
	if err != nil {
		t.Fatal(err)
	}
	wCold = slices.Clone(wCold)
	wWarm, err := sWarm.decodeWindow()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(wCold, wWarm) {
		t.Fatalf("final window: warm %v differs from cold %v", wWarm, wCold)
	}
}

func TestEngineWarmStartMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	cfg.RetrainGrowth = 0.2
	cfg.Decoder.Train.WarmStart = true
	cfg.Metrics = reg
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := synthClaim(e, "c", 60, 30, 0.1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DecodeClaim("c"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("core_trains_warm_total").Value(); got != 0 {
		t.Fatalf("first decode counted %d warm trains, want 0", got)
	}
	// Grow the evidence past the retrain threshold and decode again: the
	// stale cached model becomes the warm seed for its replacement.
	if err := synthClaim(e, "c", 60, 30, 0.1, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DecodeClaim("c"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("core_trains_warm_total").Value(); got != 1 {
		t.Errorf("core_trains_warm_total = %d, want 1", got)
	}
	if got := reg.Counter("hmm_warmstart_iterations_saved_total").Value(); got <= 0 {
		t.Errorf("hmm_warmstart_iterations_saved_total = %d, want > 0", got)
	}
}

// TestEngineWarmStartSameTimeline pins that enabling warm start does not
// change what the engine decodes.
func TestEngineWarmStartSameTimeline(t *testing.T) {
	run := func(warm bool) []Estimate {
		cfg := DefaultConfig(origin())
		cfg.ACS.WindowIntervals = 3
		cfg.RetrainGrowth = 0.2
		cfg.Decoder.Train.WarmStart = warm
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var est []Estimate
		for part := 0; part < 3; part++ {
			if err := synthClaim(e, "c", 60, 30, 0.1, int64(7+part)); err != nil {
				t.Fatal(err)
			}
			est, err = e.DecodeClaim("c")
			if err != nil {
				t.Fatal(err)
			}
		}
		return est
	}
	cold := run(false)
	warm := run(true)
	if len(cold) != len(warm) {
		t.Fatalf("estimate counts differ: %d vs %d", len(cold), len(warm))
	}
	for i := range cold {
		if cold[i].Value != warm[i].Value {
			t.Fatalf("interval %d: warm %v differs from cold %v", i, warm[i].Value, cold[i].Value)
		}
	}
}

func TestDecodeClaimIntoZeroAllocs(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	cfg.RetrainGrowth = 0.5
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := synthClaim(e, "c", 60, 30, 0.1, 5); err != nil {
		t.Fatal(err)
	}
	sc := NewDecodeScratch()
	var dst []Estimate
	// Warm-up: trains and caches the model, sizes every scratch buffer.
	dst, err = e.DecodeClaimInto(sc, "c", dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) == 0 {
		t.Fatal("warm-up decode returned no estimates")
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		dst, err = e.DecodeClaimInto(sc, "c", dst)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state DecodeClaimInto allocates %.1f objects per run, want 0", allocs)
	}
}

// TestDecodeClaimIntoMatchesDecodeClaim pins the scratch path to the
// allocating one.
func TestDecodeClaimIntoMatchesDecodeClaim(t *testing.T) {
	e := newTestEngine(t)
	if err := synthClaim(e, "c", 50, 25, 0.1, 17); err != nil {
		t.Fatal(err)
	}
	want, err := e.DecodeClaim("c")
	if err != nil {
		t.Fatal(err)
	}
	sc := NewDecodeScratch()
	got, err := e.DecodeClaimInto(sc, "c", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("estimate %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}
