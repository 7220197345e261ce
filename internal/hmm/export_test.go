package hmm

import "errors"

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

// PlainPasses is Discrete.PlainPasses for Gaussian models.
func (m *Gaussian) PlainPasses(ws *Workspace, sequences [][]float64, cfg TrainConfig, n int) error {
	cfg.MaxIterations = 1
	_, err := m.BaumWelchWS(ws, sequences, cfg)
	total := 0
	for _, obs := range sequences {
		total += len(obs)
	}
	for ; n > 1 && err == nil; n-- {
		_, err = m.baumWelch(ws, sequences, total, cfg)
	}
	return err
}
