// Package hmm is the 2-state Hidden Markov Model the SSTD scheme is built
// on (§III of the paper): the hidden state of a claim is False or True,
// trained by unsupervised Baum-Welch (EM, Eq. 5) and decoded by Viterbi
// (Eq. 6-8), with forward-backward posteriors for consumers that want
// calibrated confidence. Two emission families are provided: discrete
// symbols (used with a quantized ACS alphabet) and univariate Gaussians
// (used with raw ACS values).
//
// Both families run one fused forward/backward pass over per-step 2×2
// tables M_t[i][j] = a_ij·e_j(o_t) and one log-space Viterbi; a family
// only fills a step's emission pair — a table lookup for discrete, two
// densities for Gaussian. Discrete EM runs the pass over symbol runs, one
// step through M_s^L per run of L steps of symbol s, its table shared by
// every run of that symbol and length (pieces.go).
// Every kernel runs on a caller-owned Workspace
// with zero steady-state heap allocations. A state count other than 2 is
// an error.
package hmm

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// Common errors.
var (
	ErrEmptySequence = errors.New("hmm: observation sequence is empty")
	ErrBadSymbol     = errors.New("hmm: observation symbol out of range")
	ErrStates        = errors.New("hmm: the model must have exactly 2 states")
)

// Discrete is a discrete-emission HMM with 2 hidden states and M
// observation symbols.
type Discrete struct {
	// A[i][j] is the transition probability from state i to state j.
	A [][]float64
	// B[i][k] is the probability of emitting symbol k in state i.
	B [][]float64
	// Pi[i] is the initial state distribution.
	Pi []float64
}

// Symbols returns the size of the observation alphabet.
func (m *Discrete) Symbols() int {
	if len(m.B) == 0 {
		return 0
	}
	return len(m.B[0])
}

// Clone returns a deep copy of the model.
func (m *Discrete) Clone() *Discrete {
	return &Discrete{
		A:  cloneMatrix(m.A),
		B:  cloneMatrix(m.B),
		Pi: slices.Clone(m.Pi),
	}
}

// checkShape refuses a model whose parameters a kernel could index past:
// anything but 2 states, a 2×2 A and two equally wide B rows.
func (m *Discrete) checkShape() error {
	if len(m.Pi) != 2 || len(m.A) != 2 || len(m.B) != 2 {
		return fmt.Errorf("%w (pi has %d, A %d rows, B %d rows)", ErrStates, len(m.Pi), len(m.A), len(m.B))
	}
	if len(m.A[0]) != 2 || len(m.A[1]) != 2 || len(m.B[1]) != len(m.B[0]) {
		return fmt.Errorf("hmm: want 2 entries per A row and equally wide B rows, got %v and %v", m.A, m.B)
	}
	return nil
}

// check validates the model's shape and entries and an observation
// sequence against the alphabet.
func (m *Discrete) check(obs []int) error {
	if err := m.checkShape(); err != nil {
		return err
	}
	if err := checkEntries(m.Pi, m.A, m.B); err != nil {
		return err
	}
	if len(obs) == 0 {
		return ErrEmptySequence
	}
	sym := m.Symbols()
	for t, o := range obs {
		if o < 0 || o >= sym {
			return fmt.Errorf("%w: obs[%d]=%d, alphabet size %d", ErrBadSymbol, t, o, sym)
		}
	}
	return nil
}

// BaumWelchWS fits the model in place to one or more observation
// sequences by EM and reports the final log-likelihood. The fused pass
// runs over each sequence's symbol runs (pieces.go), so an iteration costs
// one step per run and one 2×2 product per run table, not one step per
// interval; γ comes out per symbol, the expected counts the emission
// re-estimate needs.
func (m *Discrete) BaumWelchWS(ws *Workspace, sequences [][]int, cfg TrainConfig) (TrainResult, error) {
	if len(sequences) == 0 {
		return TrainResult{}, ErrEmptySequence
	}
	for _, obs := range sequences {
		if err := m.check(obs); err != nil {
			return TrainResult{}, err
		}
	}
	ws.cutPieces(sequences, m.Symbols())
	return m.baumWelch(ws, cfg)
}

// baumWelch runs EM over the runs ws.cutPieces cut last.
func (m *Discrete) baumWelch(ws *Workspace, cfg TrainConfig) (TrainResult, error) {
	sym := m.Symbols()
	emit := func() (float64, error) {
		ws.tables(m.A, len(ws.w), sym)
		for k := range sym {
			ws.setEntry(k, m.B[0][k], m.B[1][k])
		}
		return ws.powers(), nil
	}
	refit := func() float64 {
		if cfg.FreezeEmissions {
			return 0
		}
		return max(reestimate(m.B[0], ws.gamma[:sym], cfg.SmoothB),
			reestimate(m.B[1], ws.gamma[sym:], cfg.SmoothB))
	}
	theta := [][]float64{m.Pi, m.A[0], m.A[1], m.B[0], m.B[1]}
	if cfg.FreezeEmissions {
		theta = theta[:3]
	}
	return ws.baumWelch(theta, ws.seqs, sym, cfg, emit, ws.backwardPieces, refit, nil)
}

// ViterbiWS decodes the most likely hidden state sequence into path
// (grown only when its capacity is insufficient) and returns it with its
// log probability. The log emission pair of a step is a lookup in a
// per-symbol log table, so the recursion makes no math.Log calls. The
// table is filled as the symbols first occur (NaN marks one not yet
// taken): a short window pays only for the few symbols it has.
func (m *Discrete) ViterbiWS(ws *Workspace, obs []int, path []int) ([]int, float64, error) {
	if err := m.check(obs); err != nil {
		return nil, 0, err
	}
	tp := ws.ring().Start()
	ws.emit = grow(ws.emit, m.Symbols())
	for k := range ws.emit {
		ws.emit[k][0] = math.NaN()
	}
	ws.le = grow(ws.le, len(obs))
	t := 0
	for missing := len(ws.emit); missing > 0 && t < len(obs); t++ {
		if o := obs[t]; math.IsNaN(ws.emit[o][0]) {
			ws.emit[o] = [2]float64{safeLog(m.B[0][o]), safeLog(m.B[1][o])}
			missing--
		}
		ws.le[t] = ws.emit[obs[t]]
	}
	for ; t < len(obs); t++ {
		ws.le[t] = ws.emit[obs[t]]
	}
	path, best := ws.viterbi(m.Pi, m.A, len(obs), path)
	ws.fr.Probe(flightrec.ProbeHMMViterbi, tp, int64(len(obs)), ws.frParent)
	return path, best, nil
}

// PosteriorWS computes the posterior lattice gamma[i*T+t] =
// P(state_t = i | obs, model) into dst, growing it only when its capacity
// is insufficient, and returns it; row i is state i's posterior over the
// whole sequence.
func (m *Discrete) PosteriorWS(ws *Workspace, obs []int, dst []float64) ([]float64, error) {
	if err := m.check(obs); err != nil {
		return nil, err
	}
	ws.tables(m.A, len(obs), 0)
	for t, o := range obs {
		ws.setEntry(t, m.B[0][o], m.B[1][o])
	}
	return ws.posterior(m.Pi, len(obs), dst)
}

// --- shared helpers ---

func cloneMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = slices.Clone(row)
	}
	return out
}

// checkEntries refuses a NaN, infinite or negative entry of pi, A or the
// emission rows B (nil for Gaussian models), naming it: EM would carry it
// into every parameter and the log-likelihood without an error.
func checkEntries(pi []float64, A, B [][]float64) error {
	for k, rows := range [][][]float64{{pi}, A, B} {
		for i, row := range rows {
			for j, v := range row {
				if !(v >= 0 && v <= math.MaxFloat64) {
					name := [3]string{"pi", fmt.Sprintf("A[%d]", i), fmt.Sprintf("B[%d]", i)}[k]
					return fmt.Errorf("hmm: %s[%d] = %v is not a finite non-negative probability", name, j, v)
				}
			}
		}
	}
	return nil
}

// checkChain checks the parameters both families share, pi and the rows
// of A, are probability distributions.
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

func safeLog(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return math.Log(x)
}
