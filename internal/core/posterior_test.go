package core

import (
	"math"
	"testing"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

func stepSeries(n, flip int, magnitude float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		if i < flip {
			s[i] = magnitude
		} else {
			s[i] = -magnitude
		}
	}
	return s
}

func TestPosteriorTracksEvidence(t *testing.T) {
	for _, kind := range []EmissionKind{DiscreteEmissions, GaussianEmissions} {
		cfg := DefaultDecoderConfig()
		cfg.Emissions = kind
		d, err := NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		series := stepSeries(40, 20, 4)
		post, err := d.Posterior(series)
		if err != nil {
			t.Fatalf("emissions %d: %v", kind, err)
		}
		if len(post) != 40 {
			t.Fatalf("posterior length = %d", len(post))
		}
		for i, p := range post {
			if p < 0 || p > 1 {
				t.Fatalf("posterior[%d] = %v outside [0,1]", i, p)
			}
			if i < 18 && p < 0.7 {
				t.Errorf("emissions %d: true-phase posterior[%d] = %.3f, want high", kind, i, p)
			}
			if i > 22 && p > 0.3 {
				t.Errorf("emissions %d: false-phase posterior[%d] = %.3f, want low", kind, i, p)
			}
		}
	}
}

func TestPosteriorConsistentWithViterbi(t *testing.T) {
	d, err := NewDecoder(DefaultDecoderConfig())
	if err != nil {
		t.Fatal(err)
	}
	series := stepSeries(60, 25, 3)
	post, err := d.Posterior(series)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := d.Decode(series)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := range truth {
		hard := post[i] >= 0.5
		if hard == (truth[i] == socialsensing.True) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(truth)); frac < 0.9 {
		t.Errorf("posterior/viterbi agreement = %.2f, want >= 0.9", frac)
	}
}

func TestPosteriorUncertainNearZeroEvidence(t *testing.T) {
	d, _ := NewDecoder(DefaultDecoderConfig())
	series := make([]float64, 30) // all zero: no evidence either way
	post, err := d.Posterior(series)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, p := range post {
		mean += p
	}
	mean /= float64(len(post))
	if math.Abs(mean-0.5) > 0.25 {
		t.Errorf("no-evidence mean posterior = %.3f, want near 0.5", mean)
	}
}

func TestPosteriorEmpty(t *testing.T) {
	d, _ := NewDecoder(DefaultDecoderConfig())
	post, err := d.Posterior(nil)
	if err != nil || post != nil {
		t.Errorf("Posterior(nil) = %v, %v", post, err)
	}
}

func TestEnginePosteriorClaim(t *testing.T) {
	e := newTestEngine(t, 0)
	if err := synthClaim(e, "c1", 40, 20, 0.1, 3); err != nil {
		t.Fatal(err)
	}
	post, err := e.PosteriorClaim("c1")
	if err != nil {
		t.Fatal(err)
	}
	if len(post) != 40 {
		t.Fatalf("posterior length = %d", len(post))
	}
	if post[5] < 0.6 || post[35] > 0.4 {
		t.Errorf("posterior edges = %.3f / %.3f, want confident", post[5], post[35])
	}
	if _, err := e.PosteriorClaim("nope"); err == nil {
		t.Error("unknown claim accepted")
	}
}

func TestStreamingDecoderMatchesBatchOnStablePhases(t *testing.T) {
	cfg := DefaultDecoderConfig()
	sd, err := NewStreamingDecoder(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	series := stepSeries(50, 25, 4)
	var lastEstimates []socialsensing.TruthValue
	for _, v := range series {
		if _, err := sd.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	lastEstimates, err = sd.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if len(lastEstimates) != 50 {
		t.Fatalf("timeline length = %d", len(lastEstimates))
	}
	d, _ := NewDecoder(cfg)
	batch, err := d.Decode(series)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range batch {
		if batch[i] != lastEstimates[i] {
			diff++
		}
	}
	if diff > 4 {
		t.Errorf("streaming timeline differs from batch at %d/50 positions", diff)
	}
	if len(sd.series) != 50 {
		t.Errorf("ingested %d observations, want 50", len(sd.series))
	}
}

func TestStreamingDecoderLiveEstimateTracksFlip(t *testing.T) {
	sd, err := NewStreamingDecoder(DefaultDecoderConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	series := stepSeries(40, 20, 4)
	var live []socialsensing.TruthValue
	for _, v := range series {
		est, err := sd.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, est)
	}
	// The live estimate should be True well inside the first phase and
	// False well inside the second; allow a couple of intervals around
	// the flip for detection latency.
	for i := 5; i < 18; i++ {
		if live[i] != socialsensing.True {
			t.Errorf("live[%d] = %v, want True", i, live[i])
		}
	}
	for i := 24; i < 40; i++ {
		if live[i] != socialsensing.False {
			t.Errorf("live[%d] = %v, want False", i, live[i])
		}
	}
}

func TestStreamingDecoderValidation(t *testing.T) {
	if _, err := NewStreamingDecoder(DefaultDecoderConfig(), 0); err == nil {
		t.Error("lag 0 accepted")
	}
	sd, _ := NewStreamingDecoder(DefaultDecoderConfig(), 3)
	tl, err := sd.Timeline()
	if err != nil || tl != nil {
		t.Errorf("empty Timeline = %v, %v", tl, err)
	}
}

func TestStreamingDecoderPinnedStable(t *testing.T) {
	// Once an interval falls out of the lag window its value must never
	// change, no matter what arrives later.
	sd, _ := NewStreamingDecoder(DefaultDecoderConfig(), 4)
	var snapshots [][]socialsensing.TruthValue
	series := stepSeries(30, 15, 4)
	for _, v := range series {
		if _, err := sd.Append(v); err != nil {
			t.Fatal(err)
		}
		tl, err := sd.Timeline()
		if err != nil {
			t.Fatal(err)
		}
		snapshots = append(snapshots, tl)
	}
	final := snapshots[len(snapshots)-1]
	for step, snap := range snapshots {
		pinnedUpTo := step + 1 - 2*4 // conservative: beyond both lag and context
		for i := 0; i < pinnedUpTo && i < len(snap); i++ {
			if snap[i] != final[i] {
				t.Fatalf("pinned interval %d changed after step %d: %v -> %v", i, step, snap[i], final[i])
			}
		}
	}
}
