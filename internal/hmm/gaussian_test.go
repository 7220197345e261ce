package hmm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// gaussRef is a well-separated two-state Gaussian model.
func gaussRef() *Gaussian {
	m, err := NewGaussian([]float64{-3, 3}, []float64{1, 1})
	if err != nil {
		panic(err)
	}
	m.A = [][]float64{{0.9, 0.1}, {0.1, 0.9}}
	m.Pi = []float64{0.5, 0.5}
	return m
}

func sampleGauss(m *Gaussian, T int, rng *rand.Rand) (obs []float64, states []int) {
	obs = make([]float64, T)
	states = make([]int, T)
	st := drawFrom(m.Pi, rng)
	for t := 0; t < T; t++ {
		states[t] = st
		obs[t] = m.Mean[st] + rng.NormFloat64()*math.Sqrt(m.Var[st])
		st = drawFrom(m.A[st], rng)
	}
	return obs, states
}

func TestNewGaussianValidation(t *testing.T) {
	if _, err := NewGaussian(nil, nil); err == nil {
		t.Error("empty means accepted")
	}
	if _, err := NewGaussian([]float64{0, 1}, []float64{0, 1}); err == nil {
		t.Error("zero variance accepted")
	}
	if _, err := NewGaussian([]float64{0, 1}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := NewGaussian([]float64{0, 1}, []float64{-1, 1}); err == nil {
		t.Error("negative variance accepted")
	}
	if _, err := NewGaussian([]float64{0, math.NaN()}, []float64{1, 1}); err == nil {
		t.Error("NaN mean accepted")
	}
	if _, err := NewGaussian([]float64{-1, 1}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
}

// TestGaussianSubnormalVarianceRefused: a variance whose density
// constants are not finite (−1/(2σ²) overflows for σ² = 1e-320) used to
// be accepted and then turned every posterior, every EM parameter and the
// Viterbi labels into NaN garbage with no error. Validate refuses it at
// construction, and so does every kernel.
func TestGaussianSubnormalVarianceRefused(t *testing.T) {
	if _, err := NewGaussian([]float64{0, 1}, []float64{1e-320, 1}); err == nil {
		t.Error("NewGaussian accepted variance 1e-320")
	}
	floor := gaussRef()
	floor.VarFloor = 1e-320
	if err := floor.Validate(); err == nil {
		t.Error("Validate accepted variance floor 1e-320")
	}

	direct := gaussRef()
	direct.Var[0] = 1e-320
	obs := []float64{-3, -3, 3, 3}
	ws := NewWorkspace()
	if _, err := direct.Clone().BaumWelchWS(ws, [][]float64{obs}, DefaultTrainConfig()); err == nil {
		t.Error("BaumWelchWS trained on variance 1e-320")
	}
	if _, _, err := direct.ViterbiWS(ws, obs, nil); err == nil {
		t.Error("ViterbiWS decoded with variance 1e-320")
	}
	if _, err := direct.PosteriorWS(ws, obs, nil); err == nil {
		t.Error("PosteriorWS ran with variance 1e-320")
	}
}

func TestGaussianViterbiRecoversStates(t *testing.T) {
	m := gaussRef()
	rng := rand.New(rand.NewSource(17))
	obs, states := sampleGauss(m, 300, rng)
	path, _, err := m.ViterbiWS(NewWorkspace(), obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for i := range path {
		if path[i] != states[i] {
			wrong++
		}
	}
	if frac := float64(wrong) / float64(len(path)); frac > 0.05 {
		t.Errorf("Viterbi error rate %.3f, want <= 0.05", frac)
	}
}

// TestGaussianForwardBackwardConsistency: the fused pass's log-likelihood
// and posterior are the path-sum ones, with variances small enough that
// most densities exceed 1 and the step tables are prescaled.
func TestGaussianForwardBackwardConsistency(t *testing.T) {
	m := gaussRef()
	m.Mean, m.Var = []float64{-0.2, 0.3}, []float64{0.01, 0.04}
	obs, _ := sampleGauss(m, 12, rand.New(rand.NewSource(23)))
	density := func(t, i int) float64 {
		d := obs[t] - m.Mean[i]
		return math.Exp(-d*d/(2*m.Var[i])) / math.Sqrt(2*math.Pi*m.Var[i])
	}
	total, want := bruteForce(m.Pi, m.A, len(obs), density)
	res, err := m.Clone().BaumWelchWS(NewWorkspace(), [][]float64{obs}, TrainConfig{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ll := math.Log(total); math.Abs(res.LogLikelihood-ll) > 1e-12*math.Abs(ll) {
		t.Errorf("logP = %v, brute force = %v", res.LogLikelihood, ll)
	}
	gamma, err := m.PosteriorWS(NewWorkspace(), obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for tt, w := range want {
		if math.Abs(gamma[len(obs)+tt]-w) > 1e-12 || math.Abs(gamma[tt]+w-1) > 1e-12 {
			t.Fatalf("gamma at t=%d = (%v, %v), brute force P(state 1) = %v", tt, gamma[tt], gamma[len(obs)+tt], w)
		}
	}
}

func TestGaussianBaumWelchRecoversMeans(t *testing.T) {
	truth := gaussRef()
	rng := rand.New(rand.NewSource(29))
	var seqs [][]float64
	for i := 0; i < 8; i++ {
		obs, _ := sampleGauss(truth, 200, rng)
		seqs = append(seqs, obs)
	}
	m, err := NewGaussian([]float64{-1, 1}, []float64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.BaumWelchWS(NewWorkspace(), seqs, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("no iterations ran")
	}
	lo, hi := m.Mean[0], m.Mean[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if math.Abs(lo-(-3)) > 0.5 || math.Abs(hi-3) > 0.5 {
		t.Errorf("means not recovered: %v", m.Mean)
	}
	for i, v := range m.Var {
		if v < m.varFloor() {
			t.Errorf("var[%d] = %v below floor", i, v)
		}
	}
}

func TestGaussianBaumWelchMonotone(t *testing.T) {
	truth := gaussRef()
	rng := rand.New(rand.NewSource(41))
	obs, _ := sampleGauss(truth, 150, rng)
	m, _ := NewGaussian([]float64{-0.5, 0.5}, []float64{2, 2})
	cfg := DefaultTrainConfig()
	cfg.MaxIterations = 1
	cfg.SmoothA, cfg.SmoothPi = 0, 0
	prev := math.Inf(-1)
	ws := NewWorkspace()
	for i := 0; i < 12; i++ {
		res, err := m.BaumWelchWS(ws, [][]float64{obs}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.LogLikelihood < prev-1e-6 {
			t.Fatalf("iteration %d decreased LL: %v -> %v", i, prev, res.LogLikelihood)
		}
		prev = res.LogLikelihood
	}
}

func TestGaussianVarianceFloorPreventsCollapse(t *testing.T) {
	// Identical observations would drive variance to zero without the
	// floor.
	m, _ := NewGaussian([]float64{0, 1}, []float64{1, 1})
	obs := make([]float64, 50) // all zeros
	if _, err := m.BaumWelchWS(NewWorkspace(), [][]float64{obs}, DefaultTrainConfig()); err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Var {
		if v < m.varFloor() {
			t.Errorf("var[%d] = %v collapsed below floor", i, v)
		}
		if math.IsNaN(v) {
			t.Errorf("var[%d] is NaN", i)
		}
	}
}

func TestGaussianErrors(t *testing.T) {
	m := gaussRef()
	ws := NewWorkspace()
	if _, err := m.PosteriorWS(ws, nil, nil); !errors.Is(err, ErrEmptySequence) {
		t.Errorf("PosteriorWS(nil) err = %v", err)
	}
	if _, _, err := m.ViterbiWS(ws, nil, nil); !errors.Is(err, ErrEmptySequence) {
		t.Errorf("ViterbiWS(nil) err = %v", err)
	}
	if _, err := m.BaumWelchWS(ws, [][]float64{{}}, DefaultTrainConfig()); !errors.Is(err, ErrEmptySequence) {
		t.Errorf("BaumWelchWS empty seq err = %v", err)
	}
	if _, _, err := m.ViterbiWS(ws, []float64{0, math.NaN()}, nil); err == nil {
		t.Error("ViterbiWS accepted a NaN observation")
	}
	if _, err := m.BaumWelchWS(ws, [][]float64{{math.Inf(1)}}, DefaultTrainConfig()); err == nil {
		t.Error("BaumWelchWS accepted an infinite observation")
	}
}

func TestGaussianSingleObservation(t *testing.T) {
	m := gaussRef()
	path, _, err := m.ViterbiWS(NewWorkspace(), []float64{2.9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 1 || path[0] != 1 {
		t.Errorf("Viterbi(2.9) = %v, want state 1", path)
	}
}
