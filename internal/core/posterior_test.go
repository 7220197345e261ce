package core

import (
	"math"
	"slices"
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
	d, err := NewDecoder(DefaultDecoderConfig())
	if err != nil {
		t.Fatal(err)
	}
	post, err := d.Posterior(stepSeries(40, 20, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(post) != 40 {
		t.Fatalf("posterior length = %d", len(post))
	}
	for i, p := range post {
		if p < 0 || p > 1 {
			t.Fatalf("posterior[%d] = %v outside [0,1]", i, p)
		}
		if i < 18 && p < 0.7 {
			t.Errorf("true-phase posterior[%d] = %.3f, want high", i, p)
		}
		if i > 22 && p > 0.3 {
			t.Errorf("false-phase posterior[%d] = %.3f, want low", i, p)
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
	e := newTestEngine(t)
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
	// The stream's timeline: each interval's live estimate, as Append
	// returned it, up to the final window, then that window's decode.
	var timeline []socialsensing.TruthValue
	for _, v := range series {
		est, err := sd.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		timeline = append(timeline, est)
	}
	window, err := sd.decodeWindow()
	if err != nil {
		t.Fatal(err)
	}
	timeline = append(timeline[:len(series)-len(window)], window...)
	d, _ := NewDecoder(cfg)
	batch, err := d.Decode(series)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range batch {
		if batch[i] != timeline[i] {
			diff++
		}
	}
	if diff > 4 {
		t.Errorf("streaming timeline differs from batch at %d/50 positions", diff)
	}
	if sd.n != 50 {
		t.Errorf("ingested %d observations, want 50", sd.n)
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
	window, err := sd.decodeWindow()
	if err != nil || window != nil {
		t.Errorf("empty window decodes to %v, %v", window, err)
	}
}

// TestStreamingDecoderPinnedStable: an interval that has left the window
// is pinned — nothing arriving later can revise it or move any later
// decision — because the decoder keeps no trace of it: after every
// append, the window's decode and the live estimate are exactly a fresh
// decoder's on the last 2·lag observations alone.
func TestStreamingDecoderPinnedStable(t *testing.T) {
	const lag = 4
	sd, _ := NewStreamingDecoder(DefaultDecoderConfig(), lag)
	fresh, _ := NewDecoder(DefaultDecoderConfig())
	series := stepSeries(30, 15, 4)
	for i, v := range series {
		live, err := sd.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Decode(series[max(0, i+1-2*lag) : i+1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := sd.decodeWindow()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || live != want[len(want)-1] {
			t.Fatalf("after %d appends: window %v, live %v; a fresh decode of the last %d gives %v", i+1, got, live, len(want), want)
		}
	}
}

// TestStreamingDecoderMemoryBounded: a long-lived stream keeps its window
// and nothing else — ten thousand appends at lag 4 leave at most 4·lag
// observations held, capacity included.
func TestStreamingDecoderMemoryBounded(t *testing.T) {
	const lag = 4
	sd, err := NewStreamingDecoder(DefaultDecoderConfig(), lag)
	if err != nil {
		t.Fatal(err)
	}
	series := stepSeries(10_000, 5_000, 4)
	for _, v := range series {
		if _, err := sd.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if len(sd.series) != 2*lag || cap(sd.series) > 4*lag {
		t.Errorf("after %d appends the stream holds %d observations in %d of capacity, want %d in at most %d",
			len(series), len(sd.series), cap(sd.series), 2*lag, 4*lag)
	}
}
