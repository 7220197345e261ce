package hmm

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// twoStateModel is a well-conditioned reference model used across tests:
// state 0 mostly emits symbol 0, state 1 mostly emits symbol 1, and states
// are sticky.
func twoStateModel() *Discrete {
	return &Discrete{
		A:  [][]float64{{0.9, 0.1}, {0.2, 0.8}},
		B:  [][]float64{{0.85, 0.15}, {0.1, 0.9}},
		Pi: []float64{0.6, 0.4},
	}
}

// uniformModel is a 2-state model with uniform transitions and initial
// distribution and the given emission rows.
func uniformModel(b0, b1 []float64) *Discrete {
	return &Discrete{
		A:  [][]float64{{0.5, 0.5}, {0.5, 0.5}},
		B:  [][]float64{b0, b1},
		Pi: []float64{0.5, 0.5},
	}
}

// sample draws an observation sequence (and its hidden path) from m.
func sample(m *Discrete, T int, rng *rand.Rand) (obs, states []int) {
	obs = make([]int, T)
	states = make([]int, T)
	st := drawFrom(m.Pi, rng)
	for t := 0; t < T; t++ {
		states[t] = st
		obs[t] = drawFrom(m.B[st], rng)
		st = drawFrom(m.A[st], rng)
	}
	return obs, states
}

func drawFrom(dist []float64, rng *rand.Rand) int {
	r := rng.Float64()
	acc := 0.0
	for i, p := range dist {
		acc += p
		if r < acc {
			return i
		}
	}
	return len(dist) - 1
}

// train runs BaumWelchWS on a fresh workspace.
func train(m *Discrete, seqs [][]int, cfg TrainConfig) (TrainResult, error) {
	return m.BaumWelchWS(NewWorkspace(), seqs, cfg)
}

// viterbi runs ViterbiWS on a fresh workspace.
func viterbi(m *Discrete, obs []int) ([]int, float64, error) {
	return m.ViterbiWS(NewWorkspace(), obs, nil)
}

// logLikelihood is log P(obs | m): the log-likelihood one EM iteration
// reports for the parameters it started from (run on a clone).
func logLikelihood(m *Discrete, obs []int) (float64, error) {
	res, err := train(m.Clone(), [][]int{obs}, TrainConfig{MaxIterations: 1})
	return res.LogLikelihood, err
}

// TestValidateCatchesBadModels: Validate (export_test.go) is the oracle
// the training tests use to check a fitted model is still a 2-state HMM
// of probability rows, so it must itself refuse every broken model.
func TestValidateCatchesBadModels(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Discrete)
	}{
		{"negative prob", func(m *Discrete) { m.A[0][0] = -0.5; m.A[0][1] = 1.5 }},
		{"row not summing", func(m *Discrete) { m.B[1][0] = 0.5 }},
		{"pi not summing", func(m *Discrete) { m.Pi[0] = 0.9 }},
		{"nan", func(m *Discrete) { m.A[0][0] = math.NaN() }},
		{"missing row entries", func(m *Discrete) { m.A[0] = m.A[0][:1] }},
		{"ragged emissions", func(m *Discrete) { m.B[1] = append(m.B[1], 0) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := twoStateModel()
			tt.mutate(m)
			if err := m.Validate(); err == nil {
				t.Error("Validate accepted a broken model")
			}
		})
	}
}

// TestStateCountRefused: the package is the paper's 2-state HMM. A model
// with one or three states is an error from every kernel entry point and
// from Validate — never an index panic.
func TestStateCountRefused(t *testing.T) {
	third := 1.0 / 3
	discrete := map[string]*Discrete{
		"1 state": {A: [][]float64{{1}}, B: [][]float64{{0.5, 0.5}}, Pi: []float64{1}},
		"3 states": {
			A:  [][]float64{{third, third, third}, {third, third, third}, {third, third, third}},
			B:  [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}},
			Pi: []float64{third, third, third},
		},
	}
	ws := NewWorkspace()
	cfg := DefaultTrainConfig()
	refused := func(name, what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrStates) {
			t.Errorf("%s: %s err = %v, want ErrStates", name, what, err)
		}
	}
	for name, m := range discrete {
		refused(name, "Validate", m.Validate())
		_, err := m.BaumWelchWS(ws, [][]int{{0, 1, 1}}, cfg)
		refused(name, "BaumWelchWS", err)
		_, _, err = m.ViterbiWS(ws, []int{0, 1, 1}, nil)
		refused(name, "ViterbiWS", err)
		_, err = m.PosteriorWS(ws, []int{0, 1, 1}, nil)
		refused(name, "PosteriorWS", err)
	}
}

// bruteForce sums the joint probability of every hidden path of a
// 2-state chain over T steps, where emit(t, i) is state i's emission
// probability at step t, and returns P(obs) and the
// posterior P(state_t = 1 | obs) of every step.
func bruteForce(pi []float64, A [][]float64, T int, emit func(t, i int) float64) (float64, []float64) {
	total, true1 := 0.0, make([]float64, T)
	for p := 0; p < 1<<T; p++ {
		prob := pi[p&1] * emit(0, p&1)
		for t := 1; t < T; t++ {
			prob *= A[p>>(t-1)&1][p>>t&1] * emit(t, p>>t&1)
		}
		total += prob
		for t := range true1 {
			true1[t] += prob * float64(p>>t&1)
		}
	}
	for t := range true1 {
		true1[t] /= total
	}
	return total, true1
}

func TestForwardLikelihoodMatchesBruteForce(t *testing.T) {
	m := twoStateModel()
	obs := []int{0, 1, 1, 0, 1}
	got, err := logLikelihood(m, obs)
	if err != nil {
		t.Fatal(err)
	}
	total, _ := bruteForce(m.Pi, m.A, len(obs), func(t, i int) float64 { return m.B[i][obs[t]] })
	if math.Abs(got-math.Log(total)) > 1e-9 {
		t.Errorf("Forward logP = %v, brute force = %v", got, math.Log(total))
	}
}

// TestForwardBackwardConsistency: the fused pass's posterior is the
// path-sum posterior, step by step.
func TestForwardBackwardConsistency(t *testing.T) {
	m := twoStateModel()
	obs, _ := sample(m, 12, rand.New(rand.NewSource(7)))
	_, want := bruteForce(m.Pi, m.A, len(obs), func(t, i int) float64 { return m.B[i][obs[t]] })
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

func TestPosteriorRowsSumToOne(t *testing.T) {
	m := twoStateModel()
	rng := rand.New(rand.NewSource(11))
	obs, _ := sample(m, 80, rng)
	gamma, err := m.PosteriorWS(NewWorkspace(), obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	T := len(obs)
	for tt := 0; tt < T; tt++ {
		g0, g1 := gamma[tt], gamma[T+tt]
		for _, v := range []float64{g0, g1} {
			if v < 0 || v > 1+1e-12 {
				t.Fatalf("gamma at t=%d = %v out of [0,1]", tt, v)
			}
		}
		if math.Abs(g0+g1-1) > 1e-9 {
			t.Fatalf("gamma at t=%d sums to %v", tt, g0+g1)
		}
	}
}

func TestViterbiRecoversPlantedPath(t *testing.T) {
	// With near-deterministic emissions, Viterbi must recover the true
	// hidden path.
	m := &Discrete{
		A:  [][]float64{{0.95, 0.05}, {0.05, 0.95}},
		B:  [][]float64{{0.99, 0.01}, {0.01, 0.99}},
		Pi: []float64{0.5, 0.5},
	}
	rng := rand.New(rand.NewSource(3))
	obs, states := sample(m, 200, rng)
	path, _, err := viterbi(m, obs)
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for i := range path {
		if path[i] != states[i] {
			wrong++
		}
	}
	if wrong > 6 { // 3% slack for genuinely ambiguous steps
		t.Errorf("Viterbi mismatched %d/%d positions", wrong, len(path))
	}
}

func TestViterbiPathScoreIsAchievable(t *testing.T) {
	// The reported log score must equal the joint log prob of the
	// returned path.
	m := twoStateModel()
	rng := rand.New(rand.NewSource(5))
	obs, _ := sample(m, 40, rng)
	path, score, err := viterbi(m, obs)
	if err != nil {
		t.Fatal(err)
	}
	lp := math.Log(m.Pi[path[0]]) + math.Log(m.B[path[0]][obs[0]])
	for t2 := 1; t2 < len(obs); t2++ {
		lp += math.Log(m.A[path[t2-1]][path[t2]]) + math.Log(m.B[path[t2]][obs[t2]])
	}
	if math.Abs(lp-score) > 1e-9 {
		t.Errorf("Viterbi score %v != path log-prob %v", score, lp)
	}
}

func TestViterbiBeatsRandomPaths(t *testing.T) {
	m := twoStateModel()
	rng := rand.New(rand.NewSource(9))
	obs, _ := sample(m, 20, rng)
	_, best, err := viterbi(m, obs)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		path := make([]int, len(obs))
		for i := range path {
			path[i] = rng.Intn(2)
		}
		lp := safeLog(m.Pi[path[0]]) + safeLog(m.B[path[0]][obs[0]])
		for t2 := 1; t2 < len(obs); t2++ {
			lp += safeLog(m.A[path[t2-1]][path[t2]]) + safeLog(m.B[path[t2]][obs[t2]])
		}
		if lp > best+1e-9 {
			t.Fatalf("random path %v beats Viterbi: %v > %v", path, lp, best)
		}
	}
}

func TestBaumWelchImprovesLikelihood(t *testing.T) {
	truth := twoStateModel()
	rng := rand.New(rand.NewSource(21))
	var seqs [][]int
	for i := 0; i < 5; i++ {
		obs, _ := sample(truth, 100, rng)
		seqs = append(seqs, obs)
	}
	// Break symmetry slightly so EM can move.
	m := uniformModel([]float64{0.6, 0.4}, []float64{0.4, 0.6})
	before := 0.0
	for _, s := range seqs {
		ll, err := logLikelihood(m, s)
		if err != nil {
			t.Fatal(err)
		}
		before += ll
	}
	res, err := train(m, seqs, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.LogLikelihood <= before {
		t.Errorf("training did not improve LL: %v -> %v", before, res.LogLikelihood)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("trained model invalid: %v", err)
	}
	if !res.Converged && res.Iterations < 100 {
		t.Errorf("stopped after %d iters without convergence", res.Iterations)
	}
}

func TestBaumWelchMonotoneLikelihood(t *testing.T) {
	// EM guarantees non-decreasing likelihood; verify across manual
	// single iterations.
	truth := twoStateModel()
	rng := rand.New(rand.NewSource(2))
	obs, _ := sample(truth, 150, rng)
	m := uniformModel([]float64{0.7, 0.3}, []float64{0.3, 0.7})
	cfg := DefaultTrainConfig()
	cfg.MaxIterations = 1
	cfg.SmoothA, cfg.SmoothB, cfg.SmoothPi = 0, 0, 0
	prev := math.Inf(-1)
	for i := 0; i < 15; i++ {
		res, err := train(m, [][]int{obs}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.LogLikelihood < prev-1e-8 {
			t.Fatalf("iteration %d decreased LL: %v -> %v", i, prev, res.LogLikelihood)
		}
		prev = res.LogLikelihood
	}
}

func TestBaumWelchRecoversEmissionStructure(t *testing.T) {
	truth := &Discrete{
		A:  [][]float64{{0.9, 0.1}, {0.1, 0.9}},
		B:  [][]float64{{0.95, 0.05}, {0.05, 0.95}},
		Pi: []float64{0.5, 0.5},
	}
	rng := rand.New(rand.NewSource(31))
	var seqs [][]int
	for i := 0; i < 10; i++ {
		obs, _ := sample(truth, 200, rng)
		seqs = append(seqs, obs)
	}
	m := uniformModel([]float64{0.55, 0.45}, []float64{0.45, 0.55})
	if _, err := train(m, seqs, DefaultTrainConfig()); err != nil {
		t.Fatal(err)
	}
	// Up to state relabelling, each state should strongly prefer one
	// symbol.
	s0 := m.B[0][0]
	s1 := m.B[1][1]
	if s0 < 0.5 { // swapped labelling
		s0, s1 = m.B[0][1], m.B[1][0]
	}
	if s0 < 0.8 || s1 < 0.8 {
		t.Errorf("emissions not recovered: B = %v", m.B)
	}
}

func TestErrorsPropagate(t *testing.T) {
	m := twoStateModel()
	ws := NewWorkspace()
	if _, err := m.PosteriorWS(ws, nil, nil); !errors.Is(err, ErrEmptySequence) {
		t.Errorf("PosteriorWS(nil) err = %v", err)
	}
	if _, err := m.PosteriorWS(ws, []int{0, 5}, nil); !errors.Is(err, ErrBadSymbol) {
		t.Errorf("PosteriorWS bad symbol err = %v", err)
	}
	if _, _, err := m.ViterbiWS(ws, nil, nil); !errors.Is(err, ErrEmptySequence) {
		t.Errorf("ViterbiWS(nil) err = %v", err)
	}
	if _, _, err := m.ViterbiWS(ws, []int{-1}, nil); !errors.Is(err, ErrBadSymbol) {
		t.Errorf("ViterbiWS bad symbol err = %v", err)
	}
	if _, err := m.BaumWelchWS(ws, nil, DefaultTrainConfig()); !errors.Is(err, ErrEmptySequence) {
		t.Errorf("BaumWelchWS(nil) err = %v", err)
	}
	if _, err := m.BaumWelchWS(ws, [][]int{{0}, {}}, DefaultTrainConfig()); !errors.Is(err, ErrEmptySequence) {
		t.Errorf("BaumWelchWS empty sequence err = %v", err)
	}
	if _, err := m.BaumWelchWS(ws, [][]int{{0}, {2}}, DefaultTrainConfig()); !errors.Is(err, ErrBadSymbol) {
		t.Errorf("BaumWelchWS bad symbol err = %v", err)
	}
}

// TestNonFiniteParametersRefused: a NaN, infinite or negative entry of
// pi, A or a discrete B used to run every kernel to a NaN or infinite
// log-likelihood, lattice or score with a nil error. Every kernel must
// refuse it at entry, naming the parameter.
func TestNonFiniteParametersRefused(t *testing.T) {
	obs := []int{0, 1, 1, 0, 0, 0, 1, 1}
	for _, bad := range []float64{math.NaN(), math.Inf(1), -0.5} {
		for _, param := range []string{"pi[0]", "A[0][0]", "B[0][1]"} {
			set := func(pi []float64, A, B [][]float64) {
				switch param {
				case "pi[0]":
					pi[0] = bad
				case "A[0][0]":
					A[0][0] = bad
				default:
					B[0][1] = bad
				}
			}
			d := twoStateModel()
			set(d.Pi, d.A, d.B)
			kernels := map[string]func() error{
				"discrete BaumWelchWS": func() error {
					_, err := d.Clone().BaumWelchWS(NewWorkspace(), [][]int{obs}, DefaultTrainConfig())
					return err
				},
				"discrete ViterbiWS": func() error {
					_, _, err := d.ViterbiWS(NewWorkspace(), obs, nil)
					return err
				},
				"discrete PosteriorWS": func() error {
					_, err := d.PosteriorWS(NewWorkspace(), obs, nil)
					return err
				},
			}
			for name, run := range kernels {
				if err := run(); err == nil || !strings.Contains(err.Error(), param) {
					t.Errorf("%s with %s = %v: err = %v, want one naming %s", name, param, bad, err, param)
				}
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := twoStateModel()
	c := m.Clone()
	c.A[0][0] = 0
	c.B[0][0] = 0
	c.Pi[0] = 0
	if m.A[0][0] == 0 || m.B[0][0] == 0 || m.Pi[0] == 0 {
		t.Error("Clone shares storage with original")
	}
}

func TestLikelihoodPropertySumsUnderOne(t *testing.T) {
	// For any valid observation sequence, P(obs) <= 1.
	m := twoStateModel()
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		obs := make([]int, len(raw))
		for i, b := range raw {
			obs[i] = int(b) % 2
		}
		lp, err := logLikelihood(m, obs)
		if err != nil {
			return false
		}
		return lp <= 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRowWithoutCountsIsKept: a 1-interval sequence has no transition, so
// with no smoothing neither row of A gets an expected count. EM must
// leave such a row as it was — a zeroed row is not a distribution.
func TestRowWithoutCountsIsKept(t *testing.T) {
	cfg := TrainConfig{MaxIterations: 5, FreezeEmissions: true}
	m := twoStateModel()
	wantA := cloneMatrix(m.A)
	if _, err := m.BaumWelchWS(NewWorkspace(), [][]int{{1}}, cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.A, wantA) {
		t.Errorf("discrete: A = %v, want it kept at %v", m.A, wantA)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("discrete: %v", err)
	}

}

func TestSingleObservation(t *testing.T) {
	m := twoStateModel()
	lp, err := logLikelihood(m, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(m.Pi[0]*m.B[0][1] + m.Pi[1]*m.B[1][1])
	if math.Abs(lp-want) > 1e-12 {
		t.Errorf("single obs LL = %v, want %v", lp, want)
	}
	path, _, err := viterbi(m, []int{1})
	if err != nil || len(path) != 1 {
		t.Fatalf("Viterbi single obs: path=%v err=%v", path, err)
	}
	if path[0] != 1 { // pi1*B=0.4*0.9=0.36 > pi0*B=0.6*0.15=0.09
		t.Errorf("Viterbi single obs state = %d, want 1", path[0])
	}
}
