package core

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

func cachedEngine(t *testing.T, growth float64) *Engine {
	t.Helper()
	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	cfg.RetrainGrowth = growth
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestModelCacheReusedUntilGrowth(t *testing.T) {
	e := cachedEngine(t, 0.5)
	if err := synthClaim(e, "c", 30, 15, 0.1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DecodeClaim("c"); err != nil {
		t.Fatal(err)
	}
	m1, err := e.TrainedModelFor("c")
	if err != nil {
		t.Fatal(err)
	}
	// A small amount of new data (under 50% growth) must not retrain:
	// the model pointer stays identical.
	for k := 0; k < 5; k++ {
		if err := e.Ingest(socialsensing.Report{
			Source: "s", Claim: "c", Attitude: socialsensing.Agree,
			Timestamp: origin().Add(31 * time.Minute), Independence: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.DecodeClaim("c"); err != nil {
		t.Fatal(err)
	}
	m2, err := e.TrainedModelFor("c")
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("model retrained despite growth below threshold")
	}
	// Doubling the data forces a retrain.
	if err := synthClaim(e, "c", 60, 15, 0.1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DecodeClaim("c"); err != nil {
		t.Fatal(err)
	}
	m3, err := e.TrainedModelFor("c")
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m3 {
		t.Error("model not retrained after large growth")
	}
}

func TestZeroGrowthAlwaysRetrains(t *testing.T) {
	e := cachedEngine(t, 0)
	if err := synthClaim(e, "c", 20, 10, 0.1, 1); err != nil {
		t.Fatal(err)
	}
	m1, err := e.TrainedModelFor("c")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := e.TrainedModelFor("c")
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 {
		t.Error("RetrainGrowth=0 reused a cached model")
	}
}

func TestCachedDecodeMatchesFreshDecode(t *testing.T) {
	cached := cachedEngine(t, 5) // effectively never retrain after first
	fresh := cachedEngine(t, 0)
	for _, e := range []*Engine{cached, fresh} {
		if err := synthClaim(e, "c", 40, 20, 0.1, 3); err != nil {
			t.Fatal(err)
		}
	}
	// Prime the cache, then append a little more data to both.
	if _, err := cached.DecodeClaim("c"); err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{cached, fresh} {
		for k := 0; k < 3; k++ {
			if err := e.Ingest(socialsensing.Report{
				Source: "s", Claim: "c", Attitude: socialsensing.Disagree,
				Timestamp: origin().Add(41 * time.Minute), Independence: 1,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, err := cached.DecodeClaim("c")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.DecodeClaim("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	diff := 0
	for i := range a {
		if a[i].Value != b[i].Value {
			diff++
		}
	}
	// Cached-model Viterbi on slightly newer data should agree almost
	// everywhere with a freshly trained model.
	if diff > 3 {
		t.Errorf("cached vs fresh decode differ at %d/%d intervals", diff, len(a))
	}
}

func TestTrainedModelSerializable(t *testing.T) {
	e := cachedEngine(t, 0.2)
	if err := synthClaim(e, "c", 30, 10, 0.1, 4); err != nil {
		t.Fatal(err)
	}
	m, err := e.TrainedModelFor("c")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var restored TrainedModel
	if err := json.Unmarshal(raw, &restored); err != nil {
		t.Fatal(err)
	}
	if restored.TrueState != m.TrueState {
		t.Errorf("metadata lost: %+v vs %+v", restored, m)
	}
	// The restored model decodes identically.
	d, err := NewDecoder(DefaultDecoderConfig())
	if err != nil {
		t.Fatal(err)
	}
	series := e.ACSSeries("c")
	a, err := d.DecodeWithScratch(NewDecodeScratch(), m, series)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.DecodeWithScratch(NewDecodeScratch(), &restored, series)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("restored model decode differs at %d", i)
		}
	}
}

func TestTrainedModelForUnknownClaim(t *testing.T) {
	e := cachedEngine(t, 0.2)
	if _, err := e.TrainedModelFor("nope"); err == nil {
		t.Error("unknown claim accepted")
	}
}

func TestDecodeWithValidation(t *testing.T) {
	d, _ := NewDecoder(DefaultDecoderConfig())
	if _, err := d.DecodeWithScratch(NewDecodeScratch(), nil, []float64{1}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := d.DecodeWithScratch(NewDecodeScratch(), &TrainedModel{}, []float64{1}); err == nil {
		t.Error("model without parameters accepted")
	}
	if _, _, err := d.TrainWarmScratch(NewDecodeScratch(), nil, nil); err == nil {
		t.Error("empty series trained")
	}
	got, err := d.DecodeWithScratch(NewDecodeScratch(), &TrainedModel{}, nil)
	if err != nil || got != nil {
		t.Errorf("empty series decode = %v, %v", got, err)
	}
}

// TestEngineDecodeMatchesRequantized holds DecodeClaimInto, which decodes a
// claim it has just refit from the symbols the fit left in the scratch, to
// a decode of the same model over the same window quantized afresh: through
// cold and warm refits and through cache hits, which quantize for
// themselves.
func TestEngineDecodeMatchesRequantized(t *testing.T) {
	for _, warm := range []bool{false, true} {
		cfg := DefaultConfig(origin())
		cfg.ACS.WindowIntervals = 3
		cfg.RetrainGrowth = 0.3
		cfg.Decoder.Train.WarmStart = warm
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc, refits, steps := NewDecodeScratch(), 0, 12
		for step := 1; step <= steps; step++ {
			if err := synthClaim(e, "c", 10+5*step, 3*step, 0.2, int64(step)); err != nil {
				t.Fatal(err)
			}
			before := e.claims["c"].model
			got, err := e.DecodeClaimInto(sc, "c", nil)
			if err != nil {
				t.Fatal(err)
			}
			st := e.claims["c"]
			if st.model != before {
				refits++
			}
			want, err := e.decoder.DecodeWithScratch(NewDecodeScratch(), st.model, Window(nil, st.acc.sums, cfg.ACS.WindowIntervals))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("warm %v step %d: %d estimates, fresh decode gives %d", warm, step, len(got), len(want))
			}
			for i, est := range got {
				if est.Value != want[i] {
					t.Fatalf("warm %v step %d interval %d: %v, fresh decode gives %v", warm, step, i, est.Value, want[i])
				}
			}
		}
		if refits < 2 || refits == steps {
			t.Fatalf("warm %v: %d refits in %d decodes; the test needs refits and cache hits both", warm, refits, steps)
		}
	}
}
