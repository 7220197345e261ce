package hmm

import (
	"errors"
	"fmt"
	"math"
)

// Validate checks that the model has 2 states and that all rows are
// probability distributions.
func (m *Discrete) Validate() error {
	if err := m.checkShape(); err != nil {
		return err
	}
	return errors.Join(checkChain(m.Pi, m.A), distribution("B[0]", m.B[0]), distribution("B[1]", m.B[1]))
}

// PlainPasses runs n plain EM passes of m: one-pass fits, which never
// extrapolate, the sequences checked and cut into runs once.
func (m *Discrete) PlainPasses(ws *Workspace, sequences [][]int, cfg TrainConfig, n int) error {
	cfg.MaxIterations = 1
	_, err := m.BaumWelchWS(ws, sequences, cfg)
	for ; n > 1 && err == nil; n-- {
		_, err = m.baumWelch(ws, cfg)
	}
	return err
}

// checkChain checks pi and the rows of A are probability distributions.
func checkChain(pi []float64, A [][]float64) error {
	return errors.Join(distribution("pi", pi), distribution("A[0]", A[0]), distribution("A[1]", A[1]))
}

// distribution checks row is a probability distribution.
func distribution(name string, row []float64) error {
	sum := 0.0
	for i, v := range row {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("hmm: %s[%d] = %v is not a probability", name, i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("hmm: %s sums to %v, want 1", name, sum)
	}
	return nil
}
