package hmm_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/social-sensing/sstd/internal/hmm"
	"github.com/social-sensing/sstd/internal/hmm/hmmtest"
)

// equivTol is the drift budget against the frozen seed kernels: the fused
// pass replaces per-step normalisation with power-of-two rescaling and
// register-carried β and Viterbi runs in log space, each of which may
// drift from the seed arithmetic by a few ulps but never near 1e-12.
const equivTol = 1e-12

func close2(got, want float64) bool { return within(got, want, equivTol) }

// within reports whether got is within tol of want, relative to |want|
// where that exceeds 1.
func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
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

func randDiscrete(rng *rand.Rand, sym int) *hmm.Discrete {
	m := &hmm.Discrete{Pi: randRow(rng, 2)}
	for i := 0; i < 2; i++ {
		m.A = append(m.A, randRow(rng, 2))
		m.B = append(m.B, randRow(rng, sym))
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

// oneIteration is the log-likelihood one EM iteration reports for the
// parameters a clone of the model started from: log P(obs | model).
func oneIteration(ws *hmm.Workspace, m *hmm.Discrete, obs []int) (float64, error) {
	res, err := m.Clone().BaumWelchWS(ws, [][]int{obs}, hmm.TrainConfig{MaxIterations: 1})
	return res.LogLikelihood, err
}

// checkLattice compares a posterior lattice (gamma[i*T+t]) with the
// reference's gamma[t][i].
func checkLattice(t *testing.T, name string, got []float64, want [][]float64) {
	t.Helper()
	T := len(want)
	for tt := range want {
		for i := 0; i < 2; i++ {
			if !close2(got[i*T+tt], want[tt][i]) {
				t.Fatalf("%s: gamma[%d][%d] %v vs %v", name, tt, i, got[i*T+tt], want[tt][i])
			}
		}
	}
}

// checkPath compares a Viterbi result with the reference's.
func checkPath(t *testing.T, name string, gotPath []int, gotScore float64, wantPath []int, wantScore float64) {
	t.Helper()
	if !close2(gotScore, wantScore) {
		t.Fatalf("%s: viterbi score %v vs %v", name, gotScore, wantScore)
	}
	for tt := range wantPath {
		if gotPath[tt] != wantPath[tt] {
			t.Fatalf("%s: path[%d] = %d, reference %d", name, tt, gotPath[tt], wantPath[tt])
		}
	}
}

func TestDiscreteKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	ws := hmm.NewWorkspace()
	for trial := 0; trial < 60; trial++ {
		name := fmt.Sprintf("trial %d", trial)
		sym := 2 + rng.Intn(4)
		m := randDiscrete(rng, sym)
		obs := randObs(rng, 3+rng.Intn(70), sym)

		_, _, wantLL, err := hmmtest.Forward(m, obs)
		if err != nil {
			t.Fatalf("%s: reference forward: %v", name, err)
		}
		gotLL, err := oneIteration(ws, m, obs)
		if err != nil {
			t.Fatalf("%s: BaumWelchWS: %v", name, err)
		}
		if !close2(gotLL, wantLL) {
			t.Fatalf("%s: logProb %v, reference %v", name, gotLL, wantLL)
		}

		wantGamma, err := hmmtest.Posterior(m, obs)
		if err != nil {
			t.Fatalf("%s: reference posterior: %v", name, err)
		}
		gotGamma, err := m.PosteriorWS(ws, obs, nil)
		if err != nil {
			t.Fatalf("%s: PosteriorWS: %v", name, err)
		}
		checkLattice(t, name, gotGamma, wantGamma)

		wantPath, wantScore := hmmtest.Viterbi(m, obs)
		gotPath, gotScore, err := m.ViterbiWS(ws, obs, nil)
		if err != nil {
			t.Fatalf("%s: ViterbiWS: %v", name, err)
		}
		checkPath(t, name, gotPath, gotScore, wantPath, wantScore)
	}
}

// TestViterbiExactAtTheEdges holds ViterbiWS to the frozen reference bit
// for bit, path and score, where its selects could part from the
// reference's argmax: zero transition, emission and initial entries (-Inf
// logs, down to every score of a step), exact ties between predecessors,
// which go to state 0, a single step and a 100k-step sequence. The float
// operations are the reference's, in its order, so nothing is left to a
// tolerance.
func TestViterbiExactAtTheEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	const sym = 4
	model := func(pi []float64, a, b [2][]float64) *hmm.Discrete {
		return &hmm.Discrete{Pi: pi, A: [][]float64{a[0], a[1]}, B: [][]float64{b[0], b[1]}}
	}
	half := []float64{0.5, 0.5}
	flat := []float64{0.25, 0.25, 0.25, 0.25}
	models := map[string]*hmm.Discrete{
		"random":            randDiscrete(rng, sym),
		"zero transition":   model(half, [2][]float64{{1, 0}, {0.3, 0.7}}, [2][]float64{randRow(rng, sym), randRow(rng, sym)}),
		"absorbing state 1": model([]float64{0, 1}, [2][]float64{{0.6, 0.4}, {0, 1}}, [2][]float64{randRow(rng, sym), randRow(rng, sym)}),
		"zero emissions":    model(half, [2][]float64{randRow(rng, 2), randRow(rng, 2)}, [2][]float64{{0.5, 0, 0.5, 0}, {0, 0.5, 0, 0.5}}),
		// Symbol 3 is emitted by neither state: from its first step on
		// every score is -Inf.
		"no state emits 3": model(half, [2][]float64{randRow(rng, 2), randRow(rng, 2)}, [2][]float64{{0.5, 0.5, 0, 0}, {0.2, 0.8, 0, 0}}),
		// Symmetric: both predecessors tie at every step.
		"all ties":      model(half, [2][]float64{half, half}, [2][]float64{flat, flat}),
		"symmetric A":   model(half, [2][]float64{{0.8, 0.2}, {0.2, 0.8}}, [2][]float64{flat, flat}),
		"mirror states": model(half, [2][]float64{{0.9, 0.1}, {0.1, 0.9}}, [2][]float64{{0.4, 0.1, 0.1, 0.4}, {0.1, 0.4, 0.4, 0.1}}),
	}
	seqs := map[string][]int{
		"T=1":          randObs(rng, 1, sym),
		"T=2":          randObs(rng, 2, sym),
		"iid":          randObs(rng, 300, sym),
		"runs":         runObs(rng, 300, sym, 7),
		"constant 3":   []int{3, 3, 3, 3, 3, 3, 3, 3},
		"100k runs":    runObs(rng, 100_000, sym, 7),
		"100k iid":     randObs(rng, 100_000, sym),
		"zeros then 3": []int{0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 2},
	}
	ws := hmm.NewWorkspace()
	for mname, m := range models {
		for sname, obs := range seqs {
			wantPath, wantScore := hmmtest.Viterbi(m, obs)
			gotPath, gotScore, err := m.ViterbiWS(ws, obs, nil)
			if err != nil {
				t.Fatalf("%s, %s: %v", mname, sname, err)
			}
			if gotScore != wantScore {
				t.Fatalf("%s, %s: score %v, reference %v", mname, sname, gotScore, wantScore)
			}
			if !slices.Equal(gotPath, wantPath) {
				t.Fatalf("%s, %s: path differs from the reference's at %d", mname, sname, firstDiff(gotPath, wantPath))
			}
		}
	}
	// Ties throughout go to state 0 at every step.
	path, _, err := models["all ties"].ViterbiWS(ws, seqs["iid"], nil)
	if err != nil || slices.Max(path) != 0 {
		t.Fatalf("all ties: path %v, %v; want all state 0", path, err)
	}
	// The recursion checks the symbols after the first: one out of range
	// is refused and named.
	for _, bad := range []int{-1, sym} {
		_, _, err := models["random"].ViterbiWS(ws, []int{0, 1, bad, 2}, nil)
		if !errors.Is(err, hmm.ErrBadSymbol) || !strings.Contains(err.Error(), fmt.Sprintf("obs[2]=%d", bad)) {
			t.Fatalf("symbol %d at step 2: err = %v, want ErrBadSymbol naming obs[2]", bad, err)
		}
	}
}

func firstDiff(a, b []int) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func TestDiscreteBaumWelchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 25; trial++ {
		sym := 3 + rng.Intn(3)
		m := randDiscrete(rng, sym)
		seqs := make([][]int, 1+rng.Intn(3))
		for s := range seqs {
			seqs[s] = randObs(rng, 10+rng.Intn(40), sym)
		}
		cfg := hmm.TrainConfig{
			MaxIterations:   8,
			Tolerance:       1e-12,
			SmoothA:         1e-3,
			SmoothB:         1e-3,
			SmoothPi:        1e-3,
			FreezeEmissions: trial%3 == 0,
		}
		matchReferenceFit(t, fmt.Sprintf("trial %d", trial), m, seqs, cfg, equivTol)
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

// reference is n iterations of a frozen reference fit, made as n
// one-iteration calls: the reference's own stopping rule knows neither
// warm starts nor the loop's objective.
func reference(n int, cfg hmm.TrainConfig, fit func(hmm.TrainConfig) (hmm.TrainResult, error)) (hmm.TrainResult, error) {
	cfg.MaxIterations = 1
	var res hmm.TrainResult
	for res.Iterations < n {
		r, err := fit(cfg)
		if err != nil {
			return res, err
		}
		res.Iterations, res.LogLikelihood = res.Iterations+1, r.LogLikelihood
	}
	return res, nil
}

// matchFit requires a kernel fit (r1, got) and a reference fit (r2, want)
// of clones of one model to agree: the same iteration count, and the
// log-likelihood and every parameter within tol and finite.
func matchFit(t *testing.T, name string, r1, r2 hmm.TrainResult, got, want [][]float64, tol float64) {
	t.Helper()
	if r1.Iterations != r2.Iterations || !within(r1.LogLikelihood, r2.LogLikelihood, tol) {
		t.Fatalf("%s: result %+v vs reference %+v", name, r1, r2)
	}
	if math.IsNaN(r1.LogLikelihood) || math.IsInf(r1.LogLikelihood, 0) {
		t.Fatalf("%s: log-likelihood %v", name, r1.LogLikelihood)
	}
	for r := range want {
		for i := range want[r] {
			// !within alone would let a NaN pair through.
			if g := got[r][i]; math.IsNaN(g) || math.IsInf(g, 0) || !within(g, want[r][i], tol) {
				t.Fatalf("%s: parameter row %d [%d] = %v, reference %v", name, r, i, g, want[r][i])
			}
		}
	}
}

func discreteParams(m *hmm.Discrete) [][]float64 {
	return [][]float64{m.Pi, m.A[0], m.A[1], m.B[0], m.B[1]}
}

// matchReferenceFit fits a clone of m with plain passes of the package
// kernel (plainFit: the EM map the loop accelerates) and another with as
// many iterations of the frozen reference, and requires matchFit's
// agreement within tol.
func matchReferenceFit(t *testing.T, name string, m *hmm.Discrete, seqs [][]int, cfg hmm.TrainConfig, tol float64) {
	t.Helper()
	m1, m2 := m.Clone(), m.Clone()
	r1, err := plainDiscrete(m1, seqs, cfg)
	if err != nil {
		t.Fatalf("%s: BaumWelchWS: %v", name, err)
	}
	r2, err := reference(r1.Iterations, cfg, func(c hmm.TrainConfig) (hmm.TrainResult, error) { return hmmtest.BaumWelch(m2, seqs, c) })
	if err != nil {
		t.Fatalf("%s: reference BaumWelch: %v", name, err)
	}
	matchFit(t, name, r1, r2, discreteParams(m1), discreteParams(m2), tol)
}

// halves returns the first half of every sequence.
func halves(seqs [][]int) [][]int {
	half := make([][]int, len(seqs))
	for i, s := range seqs {
		half[i] = s[:(len(s)+1)/2]
	}
	return half
}

// TestPairPassMatchesReferenceAtTheEdges drives the fused 2-state pass
// through the inputs its power-of-two rescaling and register-carried β
// could get wrong: sequences long enough to rescale hundreds of times,
// sequences too short to have a transition, constant observations,
// emissions small enough to rescale at step 0 and several times per step,
// a single step that takes the mass down by 1e-250 and an exact-zero
// emission. EM runs the pass over symbol runs, in every combination of
// frozen or re-estimated emissions, one to three sequences, cold and
// warm; PosteriorWS runs it by step over each sequence.
func TestPairPassMatchesReferenceAtTheEdges(t *testing.T) {
	const sym = 5
	rng := rand.New(rand.NewSource(606))
	base := hmm.TrainConfig{MaxIterations: 5, Tolerance: 1e-12, SmoothA: 1e-3, SmoothB: 1e-3, SmoothPi: 1e-3}
	constant := make([]int, 300)
	for i := range constant {
		constant[i] = 3
	}
	tiny := randDiscrete(rng, sym)
	tiny.B[0][0], tiny.B[0][1] = 1e-100, tiny.B[0][1]+tiny.B[0][0]-1e-100
	tiny.B[1][0], tiny.B[1][1] = 3e-90, tiny.B[1][1]+tiny.B[1][0]-3e-90
	mostlyZeros := make([]int, 400)
	for i := 0; i < len(mostlyZeros); i += 7 {
		mostlyZeros[i] = 1 + rng.Intn(sym-1)
	}
	// One step that shrinks the mass by 1e-250 wherever the mass stood
	// before it: the rescale threshold has to leave that much headroom.
	cliff := randDiscrete(rng, sym)
	cliff.B[0][0], cliff.B[0][1] = 1e-250, cliff.B[0][1]+cliff.B[0][0]-1e-250
	cliff.B[1][0], cliff.B[1][1] = 3e-250, cliff.B[1][1]+cliff.B[1][0]-3e-250
	rareZeros := make([]int, 600)
	for i := range rareZeros {
		rareZeros[i] = 1 + rng.Intn(sym-1)
	}
	for i := 5; i < len(rareZeros); i += 41 {
		rareZeros[i] = 0
	}
	oneSided := randDiscrete(rng, sym)
	oneSided.B[0][2], oneSided.B[0][3] = 0, oneSided.B[0][3]+oneSided.B[0][2]

	cases := []struct {
		name string
		m    *hmm.Discrete
		seqs [][]int
	}{
		{"T=100k", randDiscrete(rng, sym), [][]int{runObs(rng, 100_000, sym, 7)}},
		{"T=1", randDiscrete(rng, sym), [][]int{{2}}},
		{"T=2", randDiscrete(rng, sym), [][]int{{4, 0}}},
		{"T=1,2,3 together", randDiscrete(rng, sym), [][]int{{1}, {0, 3}, {2, 2, 4}}},
		{"constant", randDiscrete(rng, sym), [][]int{constant}},
		{"1e-100 emissions", tiny, [][]int{mostlyZeros, {0}, {0, 0, 0}}},
		{"1e-250 emission in a single step", cliff, [][]int{rareZeros, {0, 2}}},
		{"zero emission in one state", oneSided, [][]int{runObs(rng, 500, sym, 3), runObs(rng, 200, sym, 3)}},
		{"three sequences", randDiscrete(rng, sym), [][]int{runObs(rng, 700, sym, 7), runObs(rng, 90, sym, 2), runObs(rng, 1500, sym, 12)}},
	}
	for _, tc := range cases {
		for _, freeze := range []bool{true, false} {
			cfg := base
			cfg.FreezeEmissions = freeze
			name := fmt.Sprintf("%s/freeze=%v", tc.name, freeze)
			matchReferenceFit(t, name+"/cold", tc.m, tc.seqs, cfg, equivTol)

			// Warm: seed from the cold fit's own result, on the same data
			// and on its first half, so both warm stops are exercised.
			seed := tc.m.Clone()
			if _, err := seed.BaumWelchWS(hmm.NewWorkspace(), tc.seqs, cfg); err != nil {
				t.Fatalf("%s: seeding fit: %v", name, err)
			}
			cfg.WarmStart = true
			matchReferenceFit(t, name+"/warm", seed, tc.seqs, cfg, equivTol)
			matchReferenceFit(t, name+"/warm-prefix", seed, halves(tc.seqs), cfg, equivTol)
		}
		for i, obs := range tc.seqs {
			want, err := hmmtest.Posterior(tc.m, obs)
			if err != nil {
				t.Fatalf("%s: reference posterior %d: %v", tc.name, i, err)
			}
			got, err := tc.m.PosteriorWS(hmm.NewWorkspace(), obs, nil)
			if err != nil {
				t.Fatalf("%s: PosteriorWS %d: %v", tc.name, i, err)
			}
			checkLattice(t, fmt.Sprintf("%s: posterior %d", tc.name, i), got, want)
		}
	}
}

// TestPairPassZeroProbabilityNamesTheStep: when no state can emit the
// observed symbol the α mass is exactly zero from that step on. The pass
// must report the first such step, as the per-step scaling it replaced
// did, rather than carry a zero into its logarithm. Discrete EM counts the
// steps before it through the run tables of the runs before it, so the
// dead symbol also lands at every offset inside a run of 3, 7 and 100
// steps, behind runs of the same lengths.
func TestPairPassZeroProbabilityNamesTheStep(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	type zeroCase struct {
		obs []int
		at  int
	}
	var cases []zeroCase
	for _, at := range []int{0, 1, 17, 4999} {
		obs := runObs(rng, 5000, 3, 7)
		obs[at] = 3
		cases = append(cases, zeroCase{obs, at})
	}
	for _, n := range []int{3, 7, 100} {
		for off := range n {
			obs := lengthRuns([]int{n}, 0, 1, 2)[:1+3*n]
			obs[0], obs[1+2*n+off] = 1, 3
			cases = append(cases, zeroCase{obs, 1 + 2*n + off})
		}
	}
	for _, tc := range cases {
		m := randDiscrete(rng, 4)
		for i := range m.B {
			m.B[i][2] += m.B[i][3]
			m.B[i][3] = 0
		}
		want := fmt.Sprintf("zero-probability observation at t=%d", tc.at)
		if _, err := m.PosteriorWS(hmm.NewWorkspace(), tc.obs, nil); err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Fatalf("at=%d of %d: PosteriorWS err = %v, want it to end in %q", tc.at, len(tc.obs), err, want)
		}
		// Alone, and behind a sequence every symbol of which can be emitted.
		for _, seqs := range [][][]int{{tc.obs}, {runObs(rng, 300, 3, 7), tc.obs}} {
			for _, freeze := range []bool{true, false} {
				cfg := hmm.TrainConfig{MaxIterations: 3, FreezeEmissions: freeze, SmoothA: 1e-3, SmoothPi: 1e-3}
				mm := m.Clone()
				res, err := mm.BaumWelchWS(hmm.NewWorkspace(), seqs, cfg)
				if err == nil || !strings.HasSuffix(err.Error(), want) {
					t.Fatalf("at=%d of %d freeze=%v: err = %v (result %+v), want it to end in %q", tc.at, len(tc.obs), freeze, err, res, want)
				}
				_, refErr := hmmtest.BaumWelch(m.Clone(), seqs, cfg)
				if refErr == nil || !strings.HasSuffix(refErr.Error(), want) {
					t.Fatalf("at=%d of %d: reference err = %v, want it to end in %q", tc.at, len(tc.obs), refErr, want)
				}
			}
		}
	}
}

// exactRuns draws runs of n(k) steps for random k in 0..9, each run a
// different symbol from the one before.
func exactRuns(rng *rand.Rand, T, sym int, n func(k int) int) []int {
	obs := make([]int, 0, T)
	s := 0
	for len(obs) < T {
		s = (s + 1 + rng.Intn(sym-1)) % sym
		for range min(n(rng.Intn(10)), T-len(obs)) {
			obs = append(obs, s)
		}
	}
	return obs
}

// lengthRuns lays out, after a step-0 symbol 4, two rounds of a run of
// each length for each symbol of syms in turn; with one symbol, a step of
// symbol 4 separates its runs.
func lengthRuns(lengths []int, syms ...int) []int {
	obs := []int{4}
	for range 2 {
		for _, n := range lengths {
			for _, s := range syms {
				for range n {
					obs = append(obs, s)
				}
			}
			if len(syms) == 1 {
				obs = append(obs, 4)
			}
		}
	}
	return obs
}

// sharedTails are run lengths that are not powers of two and whose run
// tables share tails: 7 and 11 end in 3's table, 13 in 5's, 100 in 36's.
var sharedTails = []int{3, 5, 6, 7, 11, 13, 36, 100, 233}

// TestPiecePassMatchesReference holds discrete EM, which runs over symbol
// runs, to the frozen per-step reference over the run shapes the cut, the
// binary tables and the run tables could get wrong: iid symbols, runs of
// mean 1 to 50, runs of exactly 2^k and 2^k − 1 steps, one symbol for
// 100k steps (the binary tables have to prescale), runs of lengths that
// share tails under one symbol and under two, the same lengths of a
// symbol emitted with probability 1e-30 (the run tables of 11, 13 and 36
// steps and of the tails 9 and 105 then need their own prescale), 1-step
// sequences among longer ones, several sequences in one call and a
// symbol that never occurs — each with frozen and re-estimated
// emissions, cold and warm, for up to 60 iterations. Where the forward
// mass dies inside a run, both must name the same step.
func TestPiecePassMatchesReference(t *testing.T) {
	const sym, tol = 5, 1e-10
	rng := rand.New(rand.NewSource(808))
	one := make([]int, 100_000)
	for i := range one {
		one[i] = 2
	}
	rare := randDiscrete(rng, sym)
	for _, row := range rare.B {
		row[2], row[3] = 1e-30, row[3]+row[2]-1e-30
	}
	cases := []struct {
		name string
		seqs [][]int
		m    *hmm.Discrete // nil for a random model
	}{
		{"iid", [][]int{randObs(rng, 3000, sym)}, nil},
		{"one symbol, T=100k", [][]int{one}, nil},
		{"runs of 2^k", [][]int{exactRuns(rng, 4000, sym, func(k int) int { return 1 << k })}, nil},
		{"runs of 2^k-1", [][]int{exactRuns(rng, 4000, sym, func(k int) int { return 1<<k - 1 })}, nil},
		{"shared tails, one symbol", [][]int{lengthRuns(sharedTails, 1)}, nil},
		{"shared tails, two symbols", [][]int{lengthRuns(sharedTails, 0, 3)}, nil},
		{"shared tails, 1e-30 emissions", [][]int{lengthRuns(sharedTails, 2)}, rare},
		{"shared tails, several sequences", [][]int{lengthRuns(sharedTails[:4], 1, 2), {3}, lengthRuns(sharedTails[3:], 2), runObs(rng, 500, sym, 9)}, nil},
		{"T=1 among several", [][]int{{3}, runObs(rng, 700, sym, 9), {0}, runObs(rng, 40, sym, 3), {4}}, nil},
		{"unused symbol", [][]int{runObs(rng, 2000, sym-1, 7), runObs(rng, 300, sym-1, 2)}, nil},
	}
	for _, mean := range []int{1, 2, 7, 20, 50} {
		cases = append(cases, struct {
			name string
			seqs [][]int
			m    *hmm.Discrete
		}{fmt.Sprintf("run mean %d", mean), [][]int{runObs(rng, 5000, sym, mean)}, nil})
	}
	for _, tc := range cases {
		for _, freeze := range []bool{true, false} {
			m := tc.m
			if m == nil {
				m = randDiscrete(rng, sym)
			}
			cfg := hmm.TrainConfig{MaxIterations: 60, SmoothA: 1e-3, SmoothB: 1e-3, SmoothPi: 1e-3, FreezeEmissions: freeze}
			name := fmt.Sprintf("%s/freeze=%v", tc.name, freeze)
			matchReferenceFit(t, name+"/cold", m, tc.seqs, cfg, tol)
			seed := m.Clone()
			if _, err := seed.BaumWelchWS(hmm.NewWorkspace(), halves(tc.seqs), cfg); err != nil {
				t.Fatalf("%s: seeding fit: %v", name, err)
			}
			cfg.WarmStart = true
			matchReferenceFit(t, name+"/warm", seed, tc.seqs, cfg, tol)
		}
	}

	// State 1 cannot emit symbol 4 and state 0 cannot stay in state 0, so
	// the mass dies at the second step of a run of 4s — inside its binary
	// table or its run table, which spans up to a hundred steps.
	m := randDiscrete(rng, sym)
	m.A[0] = []float64{0, 1}
	m.B[1][3], m.B[1][4] = m.B[1][3]+m.B[1][4], 0
	for _, n := range []int{3, 7, 8, 11, 100} {
		for _, at := range []int{1, 100, 2890} {
			obs := runObs(rng, 3000, sym-1, 5)
			for i := at; i < at+n; i++ {
				obs[i] = 4
			}
			want := fmt.Sprintf("observation at t=%d", at+1)
			_, err := m.Clone().BaumWelchWS(hmm.NewWorkspace(), [][]int{obs}, hmm.DefaultTrainConfig())
			if err == nil || !strings.HasSuffix(err.Error(), want) {
				t.Fatalf("run of %d dies at %d: err = %v, want it to end in %q", n, at+1, err, want)
			}
			if _, refErr := hmmtest.BaumWelch(m.Clone(), [][]int{obs}, hmm.DefaultTrainConfig()); refErr == nil || !strings.HasSuffix(refErr.Error(), want) {
				t.Fatalf("run of %d dies at %d: reference err = %v, want it to end in %q", n, at+1, refErr, want)
			}
		}
	}
}
