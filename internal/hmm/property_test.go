package hmm

import (
	"math"
	"math/rand"
	"testing"
)

// randDiscrete builds a random strictly-positive 2-state model (every row
// a proper distribution) from a seeded rng.
func randDiscrete(rng *rand.Rand, symbols int) *Discrete {
	row := func(n int) []float64 {
		r := make([]float64, n)
		sum := 0.0
		for i := range r {
			r[i] = rng.Float64() + 0.05
			sum += r[i]
		}
		for i := range r {
			r[i] /= sum
		}
		return r
	}
	m := &Discrete{Pi: row(2)}
	for i := 0; i < 2; i++ {
		m.A = append(m.A, row(2))
		m.B = append(m.B, row(symbols))
	}
	return m
}

func randObs(rng *rand.Rand, symbols, T int) []int {
	obs := make([]int, T)
	for t := range obs {
		obs[t] = rng.Intn(symbols)
	}
	return obs
}

// pathLogProb scores a specific hidden-state path jointly with obs:
// log Pi[p0] + log B[p0][o0] + sum_t (log A[p(t-1)][pt] + log B[pt][ot]).
func pathLogProb(m *Discrete, path, obs []int) float64 {
	lp := safeLog(m.Pi[path[0]]) + safeLog(m.B[path[0]][obs[0]])
	for t := 1; t < len(obs); t++ {
		lp += safeLog(m.A[path[t-1]][path[t]]) + safeLog(m.B[path[t]][obs[t]])
	}
	return lp
}

// TestViterbiDominatesSampledPaths: the Viterbi path's log probability
// must be >= that of any other hidden-state path. Checked against paths
// sampled from the model's own dynamics (likely contenders) and
// uniformly random paths (adversarial shapes), across many seeds.
func TestViterbiDominatesSampledPaths(t *testing.T) {
	const eps = 1e-9
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		symbols := 2 + rng.Intn(3) // 2..4
		T := 5 + rng.Intn(30)
		m := randDiscrete(rng, symbols)
		obs := randObs(rng, symbols, T)

		path, score, err := viterbi(m, obs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := pathLogProb(m, path, obs); math.Abs(got-score) > eps {
			t.Fatalf("seed %d: viterbi score %g disagrees with its own path's probability %g", seed, score, got)
		}
		for trial := 0; trial < 200; trial++ {
			cand := make([]int, T)
			if trial%2 == 0 {
				// Sample from the model's dynamics.
				cand[0] = sampleIndex(rng, m.Pi)
				for u := 1; u < T; u++ {
					cand[u] = sampleIndex(rng, m.A[cand[u-1]])
				}
			} else {
				for u := range cand {
					cand[u] = rng.Intn(2)
				}
			}
			if lp := pathLogProb(m, cand, obs); lp > score+eps {
				t.Fatalf("seed %d trial %d: sampled path beats viterbi (%g > %g)", seed, trial, lp, score)
			}
		}
	}
}

// TestViterbiMatchesExhaustiveSearch enumerates every possible path on
// tiny instances and checks Viterbi finds the true maximum exactly.
func TestViterbiMatchesExhaustiveSearch(t *testing.T) {
	const eps = 1e-9
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		const states, symbols, T = 2, 3, 8
		m := randDiscrete(rng, symbols)
		obs := randObs(rng, symbols, T)
		_, score, err := viterbi(m, obs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		best := math.Inf(-1)
		path := make([]int, T)
		var walk func(t int)
		walk = func(pos int) {
			if pos == T {
				if lp := pathLogProb(m, path, obs); lp > best {
					best = lp
				}
				return
			}
			for s := 0; s < states; s++ {
				path[pos] = s
				walk(pos + 1)
			}
		}
		walk(0)
		if math.Abs(best-score) > eps {
			t.Fatalf("seed %d: viterbi %g != exhaustive max %g", seed, score, best)
		}
	}
}

// TestBaumWelchMonotoneLogLikelihood: with smoothing off (pure EM), the
// training log-likelihood may never decrease from one iteration to the
// next — the textbook EM guarantee. Each single-iteration call reports
// the LL of the model as it stood at the start of that iteration, so
// consecutive calls expose the full LL trajectory.
func TestBaumWelchMonotoneLogLikelihood(t *testing.T) {
	const eps = 1e-9
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed + 200))
		symbols := 2 + rng.Intn(2)
		m := randDiscrete(rng, symbols)
		seqs := [][]int{
			randObs(rng, symbols, 30),
			randObs(rng, symbols, 20),
		}
		cfg := TrainConfig{MaxIterations: 1} // Smooth* zero: pure EM
		prev := math.Inf(-1)
		for iter := 0; iter < 30; iter++ {
			res, err := train(m, seqs, cfg)
			if err != nil {
				t.Fatalf("seed %d iter %d: %v", seed, iter, err)
			}
			if res.LogLikelihood < prev-eps {
				t.Fatalf("seed %d iter %d: log-likelihood decreased %g -> %g",
					seed, iter, prev, res.LogLikelihood)
			}
			prev = res.LogLikelihood
		}
	}
}

// TestBaumWelchRowsStayStochastic: after every single update — smoothed,
// unsmoothed, and with frozen emissions — Pi and every row of A and B
// must still sum to 1.
func TestBaumWelchRowsStayStochastic(t *testing.T) {
	const eps = 1e-9
	configs := map[string]TrainConfig{
		"smoothed": {MaxIterations: 1, SmoothA: 1e-3, SmoothB: 1e-3, SmoothPi: 1e-3},
		"pure-em":  {MaxIterations: 1},
		"frozen-b": {MaxIterations: 1, SmoothA: 1e-3, SmoothPi: 1e-3, FreezeEmissions: true},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(300))
			m := randDiscrete(rng, 3)
			seqs := [][]int{randObs(rng, 3, 40)}
			for iter := 0; iter < 15; iter++ {
				if _, err := train(m, seqs, cfg); err != nil {
					t.Fatalf("iter %d: %v", iter, err)
				}
				if err := m.Validate(); err != nil {
					t.Fatalf("iter %d: model invalid after update: %v", iter, err)
				}
				checkRowSum(t, iter, "pi", m.Pi, eps)
				for i := range m.A {
					checkRowSum(t, iter, "A", m.A[i], eps)
					checkRowSum(t, iter, "B", m.B[i], eps)
				}
			}
		})
	}
}

func checkRowSum(t *testing.T, iter int, name string, row []float64, eps float64) {
	t.Helper()
	sum := 0.0
	for _, v := range row {
		sum += v
	}
	if math.Abs(sum-1) > eps {
		t.Fatalf("iter %d: %s row sums to %.12f, want 1", iter, name, sum)
	}
}

// sampleIndex draws an index from a probability row.
func sampleIndex(rng *rand.Rand, dist []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, p := range dist {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(dist) - 1
}

// TestExtrapolateRefusesStepsOffTheSimplex: extrapolate refuses a θ′ with
// a distribution entry that is not positive — the step runs past the
// simplex or onto its edge, or there is no step, v being zero — and
// otherwise leaves every row summing to 1.
func TestExtrapolateRefusesStepsOffTheSimplex(t *testing.T) {
	sticky := []float64{0.9, 0.1, 0.2, 0.8}
	for _, tc := range []struct {
		name string
		pi0  [3]float64 // π_0 in θ0, θ1, θ2; the rest of θ stays put
		ok   bool
		want float64 // θ′'s π_0 when kept
	}{
		{"halving steps: α = −2 lands inside", [3]float64{0.5, 0.3, 0.2}, true, 0.1},
		{"geometric to 0: onto the edge", [3]float64{0.5, 0.25, 0.125}, false, 0},
		{"past the simplex", [3]float64{0.5, 0.2, 0.05}, false, 0},
		{"no step", [3]float64{0.5, 0.5, 0.5}, false, 0},
	} {
		var saved []float64
		for _, p := range tc.pi0 {
			saved = append(saved, p, 1-p)
			saved = append(saved, sticky...)
		}
		theta := [][]float64{make([]float64, 2), make([]float64, 2), make([]float64, 2)}
		if ok := extrapolate(saved, theta); ok != tc.ok {
			t.Fatalf("%s: extrapolate = %v, want %v (θ′ %v)", tc.name, ok, tc.ok, theta)
		}
		if !tc.ok {
			continue
		}
		if math.Abs(theta[0][0]-tc.want) > 1e-15 || math.Abs(theta[0][0]+theta[0][1]-1) > 1e-15 {
			t.Errorf("%s: θ′ = %v, want π_0 %v", tc.name, theta, tc.want)
		}
		for i, row := range theta[1:3] {
			if math.Abs(row[0]-sticky[2*i]) > 1e-15 || math.Abs(row[0]+row[1]-1) > 1e-15 {
				t.Errorf("%s: A row %d = %v, want %v", tc.name, i, row, sticky[2*i:2*i+2])
			}
		}
	}
}
