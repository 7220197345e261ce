package hmm_test

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/social-sensing/sstd/internal/hmm"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// TestBaumWelchPhaseProbes pins which flight-recorder phases one EM
// iteration reports, emissions frozen or re-estimated: forward and
// backward per sequence (the fused pass has no E-step sweep of its own),
// then once for the M-step.
func TestBaumWelchPhaseProbes(t *testing.T) {
	rec, err := flightrec.Enable(flightrec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer flightrec.EnableCLI("", nil, nil, nil) // recording off again
	rng := rand.New(rand.NewSource(9))
	iteration := []string{"hmm.forward", "hmm.backward", "hmm.forward", "hmm.backward", "hmm.mstep"}
	want := append(append([]string(nil), iteration...), iteration...) // two iterations
	for _, freeze := range []bool{false, true} {
		cfg := hmm.TrainConfig{MaxIterations: 2, Tolerance: 1e-300, SmoothA: 1e-3, SmoothB: 1e-3, SmoothPi: 1e-3, FreezeEmissions: freeze}
		seqs := [][]int{randObs(rng, 40, 4), randObs(rng, 25, 4)}
		before := len(rec.Events(0))
		if _, err := randDiscrete(rng, 4).BaumWelchWS(hmm.NewWorkspace(), seqs, cfg); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range rec.Events(0)[before:] {
			got = append(got, e.Probe)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("freeze=%v: phases %v, want %v", freeze, got, want)
		}
	}
}
