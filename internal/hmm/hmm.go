// Package hmm is the 2-state Hidden Markov Model the SSTD scheme is built
// on (§III of the paper): the hidden state of a claim is False or True,
// its observations are symbols of a quantized ACS alphabet, and it is
// trained by unsupervised Baum-Welch (EM, Eq. 5) and decoded by Viterbi
// (Eq. 6-8), with forward-backward posteriors for consumers that want
// calibrated confidence.
//
// Posteriors run one fused forward/backward pass over per-step 2×2
// tables M_t[i][j] = a_ij·e_j(o_t); EM runs it over symbol runs, one
// step through M_s^L per run of L steps of symbol s, its table shared by
// every run of that symbol and length (pieces.go). Viterbi runs in log
// space. Every kernel runs on a caller-owned Workspace with zero
// steady-state heap allocations. A state count other than 2 is an error.
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
		if uint(o) >= uint(sym) {
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

// ViterbiWS decodes the most likely hidden state sequence into path
// (grown only when its capacity is insufficient) and returns it with its
// log probability. The recursion reads each step's log emission pair from
// a per-symbol table filled once per call, so it makes no math.Log calls
// and keeps no per-step emission lattice.
func (m *Discrete) ViterbiWS(ws *Workspace, obs []int, path []int) ([]int, float64, error) {
	// The recursion checks each symbol after the first as it reads it;
	// should one be out of range, the full check names it.
	if err := m.check(obs[:min(len(obs), 1)]); err != nil {
		return nil, 0, err
	}
	tp := ws.ring().Start()
	ws.emit = grow(ws.emit, m.Symbols())
	for k := range ws.emit {
		ws.emit[k] = [2]float64{safeLog(m.B[0][k]), safeLog(m.B[1][k])}
	}
	path, best, ok := ws.viterbi(m.Pi, m.A, obs, path)
	if !ok {
		return nil, 0, m.check(obs)
	}
	ws.fr.Probe(flightrec.ProbeHMMViterbi, tp, int64(len(obs)), ws.frParent)
	return path, best, nil
}

// PosteriorWS computes the posterior lattice gamma[i*T+t] =
// P(state_t = i | obs, model) into dst, growing it only when its capacity
// is insufficient, and returns it; row i is state i's posterior over the
// whole sequence. The fused pass runs over one table per step.
func (m *Discrete) PosteriorWS(ws *Workspace, obs []int, dst []float64) ([]float64, error) {
	if err := m.check(obs); err != nil {
		return nil, err
	}
	T := len(obs)
	ws.tables(m.A, T, 0)
	for t, o := range obs {
		ws.setEntry(t, m.B[0][o], m.B[1][o])
	}
	idx := ws.stepIndex(T)
	if _, err := ws.forwardPair(m.Pi, idx); err != nil {
		return nil, err
	}
	dst = grow(dst, 2*T)
	clear(dst)
	ws.backwardPair(idx, dst)
	// γ_t sums to 1 only up to rounding; normalised, every entry is ≤ 1.
	for t := range T {
		s := dst[t] + dst[T+t]
		dst[t] /= s
		dst[T+t] /= s
	}
	return dst, nil
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
// emission rows B, naming it: EM would carry it into every parameter and
// the log-likelihood without an error.
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

func safeLog(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return math.Log(x)
}
