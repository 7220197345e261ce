package hmm_test

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/social-sensing/sstd/internal/hmm"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// TestBaumWelchPhaseProbes pins which flight-recorder phases one EM
// iteration reports, per sequence then once for the M-step: the fused
// 2-state pass has no E-step sweep of its own, the general-n path does.
func TestBaumWelchPhaseProbes(t *testing.T) {
	rec, err := flightrec.Enable(flightrec.Config{RingSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer flightrec.Disable()
	rng := rand.New(rand.NewSource(9))
	cfg := hmm.TrainConfig{MaxIterations: 2, Tolerance: 1e-300, SmoothA: 1e-3, SmoothB: 1e-3, SmoothPi: 1e-3}
	for _, tc := range []struct {
		states int
		want   []string
	}{
		{2, []string{"hmm.forward", "hmm.backward", "hmm.forward", "hmm.backward", "hmm.mstep"}},
		{3, []string{"hmm.forward", "hmm.backward", "hmm.estep", "hmm.forward", "hmm.backward", "hmm.estep", "hmm.mstep"}},
	} {
		m := randDiscrete(rng, tc.states, 4)
		seqs := [][]int{randObs(rng, 40, 4), randObs(rng, 25, 4)}
		before := len(rec.Events(0))
		if _, err := m.BaumWelchWS(hmm.NewWorkspace(), seqs, cfg); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range rec.Events(0)[before:] {
			got = append(got, e.Probe)
		}
		want := append(append([]string(nil), tc.want...), tc.want...) // two iterations
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d states: phases %v, want %v", tc.states, got, want)
		}
	}
}
