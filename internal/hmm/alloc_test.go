package hmm_test

import (
	"math/rand"
	"testing"

	"github.com/social-sensing/sstd/internal/hmm"
)

// The workspace kernels promise zero steady-state heap allocations — the
// property that keeps long-running TD workers free of GC-driven latency
// spikes. These tests pin it with testing.AllocsPerRun on explicitly-owned
// workspaces. One warm-up call sizes every buffer; after that, any
// allocation is a regression.

func restoreDiscrete(dst, src *hmm.Discrete) {
	copy(dst.Pi, src.Pi)
	for i := range dst.A {
		copy(dst.A[i], src.A[i])
		copy(dst.B[i], src.B[i])
	}
}

func TestDiscreteBaumWelchWSZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randDiscrete(rng, 5)
	pristine := m.Clone()
	// iid symbols, long runs and runs of lengths that share tails: binary
	// tables of every level up to 2^7 and run tables built on run tables.
	seqs := [][]int{randObs(rng, 64, 5), runObs(rng, 3000, 5, 30), lengthRuns(sharedTails, 1, 2)}
	cfg := hmm.TrainConfig{MaxIterations: 5, Tolerance: 1e-300, SmoothA: 1e-3, SmoothB: 1e-3, SmoothPi: 1e-3}
	ws := hmm.NewWorkspace()
	if _, err := m.BaumWelchWS(ws, seqs, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		restoreDiscrete(m, pristine)
		if _, err := m.BaumWelchWS(ws, seqs, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("BaumWelchWS allocates %.1f objects per run, want 0", allocs)
	}
}

func TestDiscreteViterbiWSZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randDiscrete(rng, 5)
	obs := randObs(rng, 64, 5)
	ws := hmm.NewWorkspace()
	path := make([]int, len(obs))
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		path, _, err = m.ViterbiWS(ws, obs, path)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ViterbiWS allocates %.1f objects per run, want 0", allocs)
	}
}

func TestDiscretePosteriorWSZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randDiscrete(rng, 5)
	obs := randObs(rng, 64, 5)
	ws := hmm.NewWorkspace()
	dst := make([]float64, len(obs)*2)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		dst, err = m.PosteriorWS(ws, obs, dst)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("PosteriorWS allocates %.1f objects per run, want 0", allocs)
	}
}
