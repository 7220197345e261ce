package hmm_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/social-sensing/sstd/internal/hmm"
	"github.com/social-sensing/sstd/internal/hmm/hmmtest"
)

// equivTol is the drift budget against the frozen seed kernels: the
// rewritten kernels use reciprocal-multiply scaling, precomputed Gaussian
// density constants and log-space Viterbi, each of which may drift from
// the seed arithmetic by a few ulps but never near 1e-12.
const equivTol = 1e-12

func close2(got, want float64) bool {
	diff := math.Abs(got - want)
	return diff <= equivTol*math.Max(1, math.Abs(want))
}

func randRow(rng *rand.Rand, n int) []float64 {
	row := make([]float64, n)
	sum := 0.0
	for i := range row {
		row[i] = 0.05 + rng.Float64()
		sum += row[i]
	}
	for i := range row {
		row[i] /= sum
	}
	return row
}

func randDiscrete(rng *rand.Rand, n, sym int) *hmm.Discrete {
	m := &hmm.Discrete{
		A:  make([][]float64, n),
		B:  make([][]float64, n),
		Pi: randRow(rng, n),
	}
	for i := 0; i < n; i++ {
		m.A[i] = randRow(rng, n)
		m.B[i] = randRow(rng, sym)
	}
	return m
}

func randObs(rng *rand.Rand, T, sym int) []int {
	obs := make([]int, T)
	for t := range obs {
		obs[t] = rng.Intn(sym)
	}
	return obs
}

func randGaussian(rng *rand.Rand, n int) *hmm.Gaussian {
	means := make([]float64, n)
	vars := make([]float64, n)
	for i := 0; i < n; i++ {
		means[i] = -3 + 6*rng.Float64()
		vars[i] = 0.3 + 2*rng.Float64()
	}
	m, err := hmm.NewGaussian(means, vars)
	if err != nil {
		panic(err)
	}
	m.Pi = randRow(rng, n)
	for i := 0; i < n; i++ {
		m.A[i] = randRow(rng, n)
	}
	return m
}

func randGaussObs(rng *rand.Rand, T int) []float64 {
	obs := make([]float64, T)
	for t := range obs {
		obs[t] = -4 + 8*rng.Float64()
	}
	return obs
}

func TestDiscreteKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	ws := hmm.NewWorkspace()
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(3)
		sym := 2 + rng.Intn(4)
		m := randDiscrete(rng, n, sym)
		obs := randObs(rng, 3+rng.Intn(70), sym)

		wantAlpha, wantScale, wantLL, err := hmmtest.Forward(m, obs)
		if err != nil {
			t.Fatalf("trial %d: reference forward: %v", trial, err)
		}
		gotAlpha, gotScale, gotLL, err := m.ForwardWS(ws, obs)
		if err != nil {
			t.Fatalf("trial %d: ForwardWS: %v", trial, err)
		}
		if !close2(gotLL, wantLL) {
			t.Fatalf("trial %d: logProb %v, reference %v", trial, gotLL, wantLL)
		}
		for tt := range obs {
			if !close2(gotScale[tt], wantScale[tt]) {
				t.Fatalf("trial %d: scale[%d] %v vs %v", trial, tt, gotScale[tt], wantScale[tt])
			}
			for i := 0; i < n; i++ {
				if !close2(gotAlpha[tt*n+i], wantAlpha[tt][i]) {
					t.Fatalf("trial %d: alpha[%d][%d] %v vs %v", trial, tt, i, gotAlpha[tt*n+i], wantAlpha[tt][i])
				}
			}
		}

		wantBeta := hmmtest.Backward(m, obs, wantScale)
		gotBeta, err := m.BackwardWS(ws, obs, gotScale)
		if err != nil {
			t.Fatalf("trial %d: BackwardWS: %v", trial, err)
		}
		for tt := range obs {
			for i := 0; i < n; i++ {
				if !close2(gotBeta[tt*n+i], wantBeta[tt][i]) {
					t.Fatalf("trial %d: beta[%d][%d] %v vs %v", trial, tt, i, gotBeta[tt*n+i], wantBeta[tt][i])
				}
			}
		}

		wantGamma, err := hmmtest.Posterior(m, obs)
		if err != nil {
			t.Fatalf("trial %d: reference posterior: %v", trial, err)
		}
		gotGamma, err := m.PosteriorWS(ws, obs, nil)
		if err != nil {
			t.Fatalf("trial %d: PosteriorWS: %v", trial, err)
		}
		for tt := range obs {
			for i := 0; i < n; i++ {
				if !close2(gotGamma[tt*n+i], wantGamma[tt][i]) {
					t.Fatalf("trial %d: gamma[%d][%d] %v vs %v", trial, tt, i, gotGamma[tt*n+i], wantGamma[tt][i])
				}
			}
		}

		wantPath, wantScore := hmmtest.Viterbi(m, obs)
		gotPath, gotScore, err := m.ViterbiWS(ws, obs, nil)
		if err != nil {
			t.Fatalf("trial %d: ViterbiWS: %v", trial, err)
		}
		if !close2(gotScore, wantScore) {
			t.Fatalf("trial %d: viterbi score %v vs %v", trial, gotScore, wantScore)
		}
		for tt := range wantPath {
			if gotPath[tt] != wantPath[tt] {
				t.Fatalf("trial %d: path[%d] = %d, reference %d", trial, tt, gotPath[tt], wantPath[tt])
			}
		}
	}
}

func TestDiscreteBaumWelchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(2)
		sym := 3 + rng.Intn(3)
		m1 := randDiscrete(rng, n, sym)
		m2 := m1.Clone()
		nseq := 1 + rng.Intn(3)
		seqs := make([][]int, nseq)
		for s := range seqs {
			seqs[s] = randObs(rng, 10+rng.Intn(40), sym)
		}
		cfg := hmm.TrainConfig{
			MaxIterations: 8,
			Tolerance:     1e-12,
			SmoothA:       1e-3,
			SmoothB:       1e-3,
			SmoothPi:      1e-3,
		}
		if trial%3 == 0 {
			cfg.FreezeEmissions = true
		}
		r1, err := m1.BaumWelch(seqs, cfg)
		if err != nil {
			t.Fatalf("trial %d: BaumWelch: %v", trial, err)
		}
		r2, err := hmmtest.BaumWelch(m2, seqs, cfg)
		if err != nil {
			t.Fatalf("trial %d: reference BaumWelch: %v", trial, err)
		}
		if r1.Iterations != r2.Iterations || !close2(r1.LogLikelihood, r2.LogLikelihood) {
			t.Fatalf("trial %d: result %+v vs reference %+v", trial, r1, r2)
		}
		for i := 0; i < n; i++ {
			if !close2(m1.Pi[i], m2.Pi[i]) {
				t.Fatalf("trial %d: Pi[%d] %v vs %v", trial, i, m1.Pi[i], m2.Pi[i])
			}
			for j := 0; j < n; j++ {
				if !close2(m1.A[i][j], m2.A[i][j]) {
					t.Fatalf("trial %d: A[%d][%d] %v vs %v", trial, i, j, m1.A[i][j], m2.A[i][j])
				}
			}
			for k := 0; k < sym; k++ {
				if !close2(m1.B[i][k], m2.B[i][k]) {
					t.Fatalf("trial %d: B[%d][%d] %v vs %v", trial, i, k, m1.B[i][k], m2.B[i][k])
				}
			}
		}
	}
}

func TestGaussianKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	ws := hmm.NewWorkspace()
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(3)
		m := randGaussian(rng, n)
		obs := randGaussObs(rng, 3+rng.Intn(70))

		wantAlpha, wantScale, wantLL, err := hmmtest.GaussForward(m, obs)
		if err != nil {
			t.Fatalf("trial %d: reference forward: %v", trial, err)
		}
		gotAlpha, gotScale, gotLL, err := m.ForwardWS(ws, obs)
		if err != nil {
			t.Fatalf("trial %d: ForwardWS: %v", trial, err)
		}
		if !close2(gotLL, wantLL) {
			t.Fatalf("trial %d: logProb %v vs %v", trial, gotLL, wantLL)
		}
		for tt := range obs {
			for i := 0; i < n; i++ {
				if !close2(gotAlpha[tt*n+i], wantAlpha[tt][i]) {
					t.Fatalf("trial %d: alpha[%d][%d] %v vs %v", trial, tt, i, gotAlpha[tt*n+i], wantAlpha[tt][i])
				}
			}
		}

		wantBeta := hmmtest.GaussBackward(m, obs, wantScale)
		gotBeta, err := m.BackwardWS(ws, obs, gotScale)
		if err != nil {
			t.Fatalf("trial %d: BackwardWS: %v", trial, err)
		}
		for tt := range obs {
			for i := 0; i < n; i++ {
				if !close2(gotBeta[tt*n+i], wantBeta[tt][i]) {
					t.Fatalf("trial %d: beta[%d][%d] %v vs %v", trial, tt, i, gotBeta[tt*n+i], wantBeta[tt][i])
				}
			}
		}

		wantPath, wantScore := hmmtest.GaussViterbi(m, obs)
		gotPath, gotScore, err := m.ViterbiWS(ws, obs, nil)
		if err != nil {
			t.Fatalf("trial %d: ViterbiWS: %v", trial, err)
		}
		if !close2(gotScore, wantScore) {
			t.Fatalf("trial %d: viterbi score %v vs %v", trial, gotScore, wantScore)
		}
		for tt := range wantPath {
			if gotPath[tt] != wantPath[tt] {
				t.Fatalf("trial %d: path[%d] = %d, reference %d", trial, tt, gotPath[tt], wantPath[tt])
			}
		}
	}
}

func TestGaussianBaumWelchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 25; trial++ {
		n := 2
		m1 := randGaussian(rng, n)
		m2 := m1.Clone()
		seqs := [][]float64{randGaussObs(rng, 20+rng.Intn(40))}
		cfg := hmm.TrainConfig{
			MaxIterations: 8,
			Tolerance:     1e-12,
			SmoothA:       1e-3,
			SmoothPi:      1e-3,
		}
		r1, err := m1.BaumWelch(seqs, cfg)
		if err != nil {
			t.Fatalf("trial %d: BaumWelch: %v", trial, err)
		}
		r2, err := hmmtest.GaussBaumWelch(m2, seqs, cfg)
		if err != nil {
			t.Fatalf("trial %d: reference BaumWelch: %v", trial, err)
		}
		if r1.Iterations != r2.Iterations || !close2(r1.LogLikelihood, r2.LogLikelihood) {
			t.Fatalf("trial %d: result %+v vs reference %+v", trial, r1, r2)
		}
		for i := 0; i < n; i++ {
			if !close2(m1.Pi[i], m2.Pi[i]) || !close2(m1.Mean[i], m2.Mean[i]) || !close2(m1.Var[i], m2.Var[i]) {
				t.Fatalf("trial %d: state %d params (%v,%v,%v) vs (%v,%v,%v)",
					trial, i, m1.Pi[i], m1.Mean[i], m1.Var[i], m2.Pi[i], m2.Mean[i], m2.Var[i])
			}
			for j := 0; j < n; j++ {
				if !close2(m1.A[i][j], m2.A[i][j]) {
					t.Fatalf("trial %d: A[%d][%d] %v vs %v", trial, i, j, m1.A[i][j], m2.A[i][j])
				}
			}
		}
	}
}

// TestOldAPIMatchesReference pins the exported seed-signature entry points
// (which now delegate to the workspace kernels through the pool) to the
// reference implementations too.
func TestOldAPIMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 20; trial++ {
		n, sym := 2, 5
		m := randDiscrete(rng, n, sym)
		obs := randObs(rng, 30, sym)
		_, _, wantLL, err := hmmtest.Forward(m, obs)
		if err != nil {
			t.Fatal(err)
		}
		gotLL, err := m.LogLikelihood(obs)
		if err != nil {
			t.Fatal(err)
		}
		if !close2(gotLL, wantLL) {
			t.Fatalf("trial %d: LogLikelihood %v vs %v", trial, gotLL, wantLL)
		}
		wantGamma, err := hmmtest.Posterior(m, obs)
		if err != nil {
			t.Fatal(err)
		}
		gotGamma, err := m.Posterior(obs)
		if err != nil {
			t.Fatal(err)
		}
		for tt := range obs {
			for i := 0; i < n; i++ {
				if !close2(gotGamma[tt][i], wantGamma[tt][i]) {
					t.Fatalf("trial %d: gamma[%d][%d] %v vs %v", trial, tt, i, gotGamma[tt][i], wantGamma[tt][i])
				}
			}
		}
		wantPath, _ := hmmtest.Viterbi(m, obs)
		gotPath, _, err := m.Viterbi(obs)
		if err != nil {
			t.Fatal(err)
		}
		for tt := range wantPath {
			if gotPath[tt] != wantPath[tt] {
				t.Fatalf("trial %d: path[%d] = %d, reference %d", trial, tt, gotPath[tt], wantPath[tt])
			}
		}
	}
}

// runObs draws T symbols that persist for runs of 1..2*mean-1 steps, the
// shape of a quantized ACS series.
func runObs(rng *rand.Rand, T, sym, mean int) []int {
	obs := make([]int, T)
	for t := 0; t < T; {
		k := rng.Intn(sym)
		for n := 1 + rng.Intn(2*mean-1); n > 0 && t < T; n-- {
			obs[t] = k
			t++
		}
	}
	return obs
}

// matchReferenceFit trains a clone of m with the package kernel and
// another with the frozen reference and requires the same iteration
// count and every result within equivTol. The reference knows no warm
// start, so a warm fit is compared with a reference run capped at the
// iterations the warm fit took.
func matchReferenceFit(t *testing.T, name string, m *hmm.Discrete, seqs [][]int, cfg hmm.TrainConfig) {
	t.Helper()
	m1, m2 := m.Clone(), m.Clone()
	r1, err := m1.BaumWelchWS(hmm.NewWorkspace(), seqs, cfg)
	if err != nil {
		t.Fatalf("%s: BaumWelchWS: %v", name, err)
	}
	refCfg := cfg
	if cfg.WarmStart {
		refCfg.MaxIterations = r1.Iterations
	}
	r2, err := hmmtest.BaumWelch(m2, seqs, refCfg)
	if err != nil {
		t.Fatalf("%s: reference BaumWelch: %v", name, err)
	}
	if r1.Iterations != r2.Iterations || !close2(r1.LogLikelihood, r2.LogLikelihood) {
		t.Fatalf("%s: result %+v vs reference %+v", name, r1, r2)
	}
	check := func(what string, got, want []float64) {
		for i := range want {
			// !close2 alone would let a NaN pair through.
			if math.IsNaN(got[i]) || math.IsInf(got[i], 0) || !close2(got[i], want[i]) {
				t.Fatalf("%s: %s[%d] = %v, reference %v", name, what, i, got[i], want[i])
			}
		}
	}
	if math.IsNaN(r1.LogLikelihood) || math.IsInf(r1.LogLikelihood, 0) {
		t.Fatalf("%s: log-likelihood %v", name, r1.LogLikelihood)
	}
	check("Pi", m1.Pi, m2.Pi)
	for i := range m2.A {
		check("A row", m1.A[i], m2.A[i])
		check("B row", m1.B[i], m2.B[i])
	}
}

// TestPairPassMatchesReferenceAtTheEdges drives the fused 2-state EM pass
// through the inputs its power-of-two rescaling and register-carried β
// could get wrong: sequences long enough to rescale hundreds of times,
// sequences too short to have a transition, constant observations,
// emissions small enough to rescale at step 0 and several times per
// step, a single step that takes the mass down by 1e-250, an exact-zero
// emission, and every combination of frozen or
// re-estimated emissions, one to three sequences, cold and warm.
func TestPairPassMatchesReferenceAtTheEdges(t *testing.T) {
	const sym = 5
	rng := rand.New(rand.NewSource(606))
	base := hmm.TrainConfig{MaxIterations: 5, Tolerance: 1e-12, SmoothA: 1e-3, SmoothB: 1e-3, SmoothPi: 1e-3}
	constant := make([]int, 300)
	for i := range constant {
		constant[i] = 3
	}
	tiny := randDiscrete(rng, 2, sym)
	tiny.B[0][0], tiny.B[0][1] = 1e-100, tiny.B[0][1]+tiny.B[0][0]-1e-100
	tiny.B[1][0], tiny.B[1][1] = 3e-90, tiny.B[1][1]+tiny.B[1][0]-3e-90
	mostlyZeros := make([]int, 400)
	for i := 0; i < len(mostlyZeros); i += 7 {
		mostlyZeros[i] = 1 + rng.Intn(sym-1)
	}
	// One step that shrinks the mass by 1e-250 wherever the mass stood
	// before it: the rescale threshold has to leave that much headroom.
	cliff := randDiscrete(rng, 2, sym)
	cliff.B[0][0], cliff.B[0][1] = 1e-250, cliff.B[0][1]+cliff.B[0][0]-1e-250
	cliff.B[1][0], cliff.B[1][1] = 3e-250, cliff.B[1][1]+cliff.B[1][0]-3e-250
	rareZeros := make([]int, 600)
	for i := range rareZeros {
		rareZeros[i] = 1 + rng.Intn(sym-1)
	}
	for i := 5; i < len(rareZeros); i += 41 {
		rareZeros[i] = 0
	}
	oneSided := randDiscrete(rng, 2, sym)
	oneSided.B[0][2], oneSided.B[0][3] = 0, oneSided.B[0][3]+oneSided.B[0][2]

	cases := []struct {
		name string
		m    *hmm.Discrete
		seqs [][]int
	}{
		{"T=100k", randDiscrete(rng, 2, sym), [][]int{runObs(rng, 100_000, sym, 7)}},
		{"T=1", randDiscrete(rng, 2, sym), [][]int{{2}}},
		{"T=2", randDiscrete(rng, 2, sym), [][]int{{4, 0}}},
		{"T=1,2,3 together", randDiscrete(rng, 2, sym), [][]int{{1}, {0, 3}, {2, 2, 4}}},
		{"constant", randDiscrete(rng, 2, sym), [][]int{constant}},
		{"1e-100 emissions", tiny, [][]int{mostlyZeros, {0}, {0, 0, 0}}},
		{"1e-250 emission in a single step", cliff, [][]int{rareZeros, {0, 2}}},
		{"zero emission in one state", oneSided, [][]int{runObs(rng, 500, sym, 3), runObs(rng, 200, sym, 3)}},
		{"three sequences", randDiscrete(rng, 2, sym), [][]int{runObs(rng, 700, sym, 7), runObs(rng, 90, sym, 2), runObs(rng, 1500, sym, 12)}},
	}
	for _, tc := range cases {
		for _, freeze := range []bool{true, false} {
			cfg := base
			cfg.FreezeEmissions = freeze
			name := fmt.Sprintf("%s/freeze=%v", tc.name, freeze)
			matchReferenceFit(t, name+"/cold", tc.m, tc.seqs, cfg)

			// Warm: seed from the cold fit's own result, on the same data
			// and on its first half, so both warm stops are exercised.
			seed := tc.m.Clone()
			if _, err := seed.BaumWelch(tc.seqs, cfg); err != nil {
				t.Fatalf("%s: seeding fit: %v", name, err)
			}
			cfg.WarmStart = true
			matchReferenceFit(t, name+"/warm", seed, tc.seqs, cfg)
			half := make([][]int, len(tc.seqs))
			for i, s := range tc.seqs {
				half[i] = s[:(len(s)+1)/2]
			}
			matchReferenceFit(t, name+"/warm-prefix", seed, half, cfg)
		}
	}
}

// TestPairPassZeroProbabilityNamesTheStep: when no state can emit the
// observed symbol the α mass is exactly zero from that step on. The pass
// must report the first such step, as the per-step scaling it replaced
// did, rather than carry a zero into its logarithm.
func TestPairPassZeroProbabilityNamesTheStep(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	for _, at := range []int{0, 1, 17, 4999} {
		m := randDiscrete(rng, 2, 4)
		for i := range m.B {
			m.B[i][2] += m.B[i][3]
			m.B[i][3] = 0
		}
		obs := runObs(rng, 5000, 3, 7)
		obs[at] = 3
		// Alone, and behind a sequence every symbol of which can be emitted.
		for _, seqs := range [][][]int{{obs}, {runObs(rng, 300, 3, 7), obs}} {
			for _, freeze := range []bool{true, false} {
				cfg := hmm.TrainConfig{MaxIterations: 3, FreezeEmissions: freeze, SmoothA: 1e-3, SmoothPi: 1e-3}
				mm := m.Clone()
				res, err := mm.BaumWelch(seqs, cfg)
				want := fmt.Sprintf("zero-probability observation at t=%d", at)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("at=%d freeze=%v: err = %v (result %+v), want it to contain %q", at, freeze, err, res, want)
				}
				_, refErr := hmmtest.BaumWelch(m.Clone(), seqs, cfg)
				if refErr == nil || !strings.Contains(refErr.Error(), want) {
					t.Fatalf("at=%d: reference err = %v, want it to contain %q", at, refErr, want)
				}
			}
		}
	}
}
