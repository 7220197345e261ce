package hmm_test

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/social-sensing/sstd/internal/hmm"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// TestBaumWelchPhaseProbes pins which flight-recorder phases one EM
// iteration reports for both emission families: forward and backward per
// sequence (the fused pass has no E-step sweep of its own), then once for
// the M-step.
func TestBaumWelchPhaseProbes(t *testing.T) {
	rec, err := flightrec.Enable(flightrec.Config{RingSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer flightrec.Disable()
	rng := rand.New(rand.NewSource(9))
	cfg := hmm.TrainConfig{MaxIterations: 2, Tolerance: 1e-300, SmoothA: 1e-3, SmoothB: 1e-3, SmoothPi: 1e-3}
	iteration := []string{"hmm.forward", "hmm.backward", "hmm.forward", "hmm.backward", "hmm.mstep"}
	want := append(append([]string(nil), iteration...), iteration...) // two iterations
	for family, fit := range map[string]func(*hmm.Workspace) (hmm.TrainResult, error){
		"discrete": func(ws *hmm.Workspace) (hmm.TrainResult, error) {
			seqs := [][]int{randObs(rng, 40, 4), randObs(rng, 25, 4)}
			return randDiscrete(rng, 4).BaumWelchWS(ws, seqs, cfg)
		},
		"gaussian": func(ws *hmm.Workspace) (hmm.TrainResult, error) {
			seqs := [][]float64{randGaussObs(rng, 40), randGaussObs(rng, 25)}
			return randGaussian(rng).BaumWelchWS(ws, seqs, cfg)
		},
	} {
		before := len(rec.Events(0))
		if _, err := fit(hmm.NewWorkspace()); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range rec.Events(0)[before:] {
			got = append(got, e.Probe)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: phases %v, want %v", family, got, want)
		}
	}
}
