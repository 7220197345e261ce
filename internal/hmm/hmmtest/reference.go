// Package hmmtest carries a frozen copy of the repository's original
// (pre-workspace) HMM kernels, verbatim in structure and arithmetic order.
// It exists purely as a test oracle and benchmark baseline: the
// allocation-free flat kernels in internal/hmm are asserted equivalent to
// these within 1e-12, and the checked-in BENCH_hmm.json baseline measures
// the speedup of the rewrite against them on the same machine. Do not
// "improve" this code — its value is that it never changes.
package hmmtest

import (
	"fmt"
	"math"

	"github.com/social-sensing/sstd/internal/hmm"
)

func makeMatrix(rows, cols int) [][]float64 {
	backing := make([]float64, rows*cols)
	m := make([][]float64, rows)
	for i := range m {
		m[i], backing = backing[:cols:cols], backing[cols:]
	}
	return m
}

func normalizeRow(row []float64) float64 {
	sum := 0.0
	for _, v := range row {
		sum += v
	}
	if sum > 0 {
		for i := range row {
			row[i] /= sum
		}
	}
	return sum
}

func safeLog(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return math.Log(x)
}

// Forward is the seed scaled forward algorithm for discrete models.
func Forward(m *hmm.Discrete, obs []int) (alpha [][]float64, scale []float64, logProb float64, err error) {
	n, T := len(m.Pi), len(obs)
	alpha = makeMatrix(T, n)
	scale = make([]float64, T)
	for i := 0; i < n; i++ {
		alpha[0][i] = m.Pi[i] * m.B[i][obs[0]]
	}
	scale[0] = normalizeRow(alpha[0])
	for t := 1; t < T; t++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for i := 0; i < n; i++ {
				sum += alpha[t-1][i] * m.A[i][j]
			}
			alpha[t][j] = sum * m.B[j][obs[t]]
		}
		scale[t] = normalizeRow(alpha[t])
	}
	for t := 0; t < T; t++ {
		if scale[t] <= 0 {
			return nil, nil, 0, fmt.Errorf("hmmtest: zero-probability observation at t=%d", t)
		}
		logProb += math.Log(scale[t])
	}
	return alpha, scale, logProb, nil
}

// Backward is the seed scaled backward algorithm for discrete models.
func Backward(m *hmm.Discrete, obs []int, scale []float64) [][]float64 {
	n, T := len(m.Pi), len(obs)
	beta := makeMatrix(T, n)
	for i := 0; i < n; i++ {
		beta[T-1][i] = 1 / scale[T-1]
	}
	for t := T - 2; t >= 0; t-- {
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += m.A[i][j] * m.B[j][obs[t+1]] * beta[t+1][j]
			}
			beta[t][i] = sum / scale[t]
		}
	}
	return beta
}

// Posterior is the seed forward-backward smoother for discrete models.
func Posterior(m *hmm.Discrete, obs []int) ([][]float64, error) {
	alpha, scale, _, err := Forward(m, obs)
	if err != nil {
		return nil, err
	}
	beta := Backward(m, obs, scale)
	T, n := len(obs), len(m.Pi)
	gamma := makeMatrix(T, n)
	for t := 0; t < T; t++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			gamma[t][i] = alpha[t][i] * beta[t][i]
			sum += gamma[t][i]
		}
		if sum > 0 {
			for i := 0; i < n; i++ {
				gamma[t][i] /= sum
			}
		}
	}
	return gamma, nil
}

// Viterbi is the seed Viterbi decoder for discrete models, including its
// per-cell safeLog recomputation.
func Viterbi(m *hmm.Discrete, obs []int) ([]int, float64) {
	n, T := len(m.Pi), len(obs)
	delta := makeMatrix(T, n)
	psi := make([][]int, T)
	for t := range psi {
		psi[t] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		delta[0][i] = safeLog(m.Pi[i]) + safeLog(m.B[i][obs[0]])
	}
	for t := 1; t < T; t++ {
		for j := 0; j < n; j++ {
			best := math.Inf(-1)
			arg := 0
			for i := 0; i < n; i++ {
				v := delta[t-1][i] + safeLog(m.A[i][j])
				if v > best {
					best = v
					arg = i
				}
			}
			delta[t][j] = best + safeLog(m.B[j][obs[t]])
			psi[t][j] = arg
		}
	}
	best := math.Inf(-1)
	last := 0
	for i := 0; i < n; i++ {
		if delta[T-1][i] > best {
			best = delta[T-1][i]
			last = i
		}
	}
	path := make([]int, T)
	path[T-1] = last
	for t := T - 1; t > 0; t-- {
		path[t-1] = psi[t][path[t]]
	}
	return path, best
}

// BaumWelch is the seed discrete EM fit, fresh accumulators and per-step
// gamma allocations included.
func BaumWelch(m *hmm.Discrete, sequences [][]int, cfg hmm.TrainConfig) (hmm.TrainResult, error) {
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 100
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 1e-6
	}
	n, sym := len(m.Pi), m.Symbols()
	prevLL := math.Inf(-1)
	var res hmm.TrainResult
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		piAcc := make([]float64, n)
		aNum := makeMatrix(n, n)
		bNum := makeMatrix(n, sym)
		totalLL := 0.0

		for _, obs := range sequences {
			T := len(obs)
			alpha, scale, ll, err := Forward(m, obs)
			if err != nil {
				return res, fmt.Errorf("baum-welch E-step: %w", err)
			}
			totalLL += ll
			beta := Backward(m, obs, scale)
			for t := 0; t < T; t++ {
				gsum := 0.0
				gamma := make([]float64, n)
				for i := 0; i < n; i++ {
					gamma[i] = alpha[t][i] * beta[t][i]
					gsum += gamma[i]
				}
				if gsum <= 0 {
					continue
				}
				for i := 0; i < n; i++ {
					g := gamma[i] / gsum
					if t == 0 {
						piAcc[i] += g
					}
					bNum[i][obs[t]] += g
				}
			}
			for t := 0; t < T-1; t++ {
				for i := 0; i < n; i++ {
					ai := alpha[t][i]
					if ai == 0 {
						continue
					}
					for j := 0; j < n; j++ {
						xi := ai * m.A[i][j] * m.B[j][obs[t+1]] * beta[t+1][j]
						aNum[i][j] += xi
					}
				}
			}
		}

		for i := 0; i < n; i++ {
			piAcc[i] += cfg.SmoothPi
		}
		normalizeRow(piAcc)
		copy(m.Pi, piAcc)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.A[i][j] = aNum[i][j] + cfg.SmoothA
			}
			normalizeRow(m.A[i])
			if !cfg.FreezeEmissions {
				for k := 0; k < sym; k++ {
					m.B[i][k] = bNum[i][k] + cfg.SmoothB
				}
				normalizeRow(m.B[i])
			}
		}

		res.Iterations = iter + 1
		res.LogLikelihood = totalLL
		if totalLL-prevLL < cfg.Tolerance && iter > 0 {
			res.Converged = true
			break
		}
		prevLL = totalLL
	}
	return res, nil
}
