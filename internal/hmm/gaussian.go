package hmm

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// Gaussian is a 2-state HMM whose per-state emissions are univariate
// normal distributions. It is used with raw (continuous) Aggregated
// Contribution Score sequences, avoiding the quantization step the
// discrete model needs.
type Gaussian struct {
	// A[i][j] is the transition probability from state i to state j.
	A [][]float64
	// Pi[i] is the initial state distribution.
	Pi []float64
	// Mean[i] and Var[i] parameterize state i's emission density.
	Mean []float64
	Var  []float64

	// VarFloor is the minimum variance enforced during training to keep
	// densities finite. Zero means use the default (1e-4).
	VarFloor float64
}

// NewGaussian returns a validated model with uniform transitions and
// initial distribution and the given emission parameters, one mean and
// one variance per state.
func NewGaussian(means, vars []float64) (*Gaussian, error) {
	m := &Gaussian{
		A:    [][]float64{{0.5, 0.5}, {0.5, 0.5}},
		Pi:   []float64{0.5, 0.5},
		Mean: slices.Clone(means),
		Var:  slices.Clone(vars),
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// States returns the number of hidden states.
func (m *Gaussian) States() int { return len(m.Pi) }

// Clone returns a deep copy of the model.
func (m *Gaussian) Clone() *Gaussian {
	return &Gaussian{
		A:        cloneMatrix(m.A),
		Pi:       slices.Clone(m.Pi),
		Mean:     slices.Clone(m.Mean),
		Var:      slices.Clone(m.Var),
		VarFloor: m.VarFloor,
	}
}

// Validate checks that the model has 2 states, that pi and the rows of A
// are probability distributions, that the means are finite, and that
// every variance, the floor included, has finite density constants.
func (m *Gaussian) Validate() error {
	if err := m.checkShape(); err != nil {
		return err
	}
	_, err := m.densities()
	_, _, floorErr := density(m.varFloor())
	return errors.Join(checkChain(m.Pi, m.A), err, floorErr)
}

func (m *Gaussian) varFloor() float64 {
	if m.VarFloor > 0 {
		return m.VarFloor
	}
	return 1e-4
}

// checkShape refuses a model whose parameters a kernel could index past:
// anything but 2 states and a 2×2 A.
func (m *Gaussian) checkShape() error {
	if len(m.Pi) != 2 || len(m.A) != 2 || len(m.Mean) != 2 || len(m.Var) != 2 {
		return fmt.Errorf("%w (pi %d, A %d rows, %d means, %d variances)", ErrStates, len(m.Pi), len(m.A), len(m.Mean), len(m.Var))
	}
	if len(m.A[0]) != 2 || len(m.A[1]) != 2 {
		return fmt.Errorf("hmm: A rows have %d and %d entries, want 2", len(m.A[0]), len(m.A[1]))
	}
	return nil
}

// check validates the model's shape and entries and an observation
// sequence and returns the model's densities.
func (m *Gaussian) check(obs []float64) (densities, error) {
	if err := m.checkShape(); err != nil {
		return densities{}, err
	}
	if err := checkEntries(m.Pi, m.A, nil); err != nil {
		return densities{}, err
	}
	if len(obs) == 0 {
		return densities{}, ErrEmptySequence
	}
	for t, x := range obs {
		if !finite(x) {
			return densities{}, fmt.Errorf("hmm: obs[%d] = %v is not finite", t, x)
		}
	}
	return m.densities()
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// densities holds both states' emission densities in closed form: state
// i's density at x is coef[i]·exp(d²·negInv[i]) with d = x − mean[i],
// coef = 1/(σ√2π) and negInv = −1/(2σ²) — one multiply and one exp per
// density instead of a division and a square root.
type densities struct{ mean, coef, negInv [2]float64 }

// density returns the constants of a normal density with variance v, or
// an error when they are not finite and positive.
func density(v float64) (coef, negInv float64, err error) {
	coef, negInv = 1/math.Sqrt(2*math.Pi*v), -1/(2*v)
	if !(v > 0) || !(coef > 0) || math.IsInf(coef, 0) || math.IsInf(negInv, 0) {
		return 0, 0, fmt.Errorf("hmm: variance %v has no finite normal density", v)
	}
	return coef, negInv, nil
}

// densities returns the model's densities, or an error when a mean is
// not finite or a variance has no finite density (a subnormal variance
// has none: −1/(2σ²) overflows).
func (m *Gaussian) densities() (densities, error) {
	g := densities{mean: [2]float64{m.Mean[0], m.Mean[1]}}
	var err0, err1, errMean error
	g.coef[0], g.negInv[0], err0 = density(m.Var[0])
	g.coef[1], g.negInv[1], err1 = density(m.Var[1])
	if !finite(g.mean[0]) || !finite(g.mean[1]) {
		errMean = fmt.Errorf("hmm: means %v are not finite", m.Mean)
	}
	return g, errors.Join(err0, err1, errMean)
}

// fillDensities sets table entries k, k+1, … to the emission pairs of
// obs and returns the sum of the binary exponents it prescaled them by:
// a density exceeds 1 whenever σ² < 1/(2π), and such a step's pair is
// scaled by a power of two, exactly, until the larger lies in [½, 1).
// Scaling a step's pair alike leaves every posterior unchanged.
func (ws *Workspace) fillDensities(g densities, obs []float64, k int) (shift int) {
	for _, x := range obs {
		d0, d1 := x-g.mean[0], x-g.mean[1]
		e0 := g.coef[0] * math.Exp(d0*d0*g.negInv[0])
		e1 := g.coef[1] * math.Exp(d1*d1*g.negInv[1])
		if top := max(e0, e1); top > 1 {
			_, s := math.Frexp(top)
			e0, e1 = math.Ldexp(e0, -s), math.Ldexp(e1, -s)
			shift += s
		}
		ws.setEntry(k, e0, e1)
		k++
	}
	return shift
}

// BaumWelchWS fits transitions, initial distribution and emission
// moments in place by EM and reports the final log-likelihood (of
// densities, so it may be positive). The tables are filled by step of the
// sequences laid end to end, so γ is the lattice the moments come from.
func (m *Gaussian) BaumWelchWS(ws *Workspace, sequences [][]float64, cfg TrainConfig) (TrainResult, error) {
	if len(sequences) == 0 {
		return TrainResult{}, ErrEmptySequence
	}
	total := 0
	for _, obs := range sequences {
		if _, err := m.check(obs); err != nil {
			return TrainResult{}, err
		}
		total += len(obs)
	}
	steps := ws.stepIndex(total)
	ws.seqs = ws.seqs[:0]
	for _, obs := range sequences {
		ws.seqs = append(ws.seqs, steps[:len(obs)])
		steps = steps[len(obs):]
	}
	return m.baumWelch(ws, sequences, total, cfg)
}

// baumWelch runs EM over the sequences, of total steps, laid out in ws.seqs.
func (m *Gaussian) baumWelch(ws *Workspace, sequences [][]float64, total int, cfg TrainConfig) (TrainResult, error) {
	emit := func() (float64, error) {
		g, err := m.densities()
		if err != nil {
			return 0, err
		}
		ws.tables(m.A, total, 0)
		shift, k := 0, 0
		for _, obs := range sequences {
			shift += ws.fillDensities(g, obs, k)
			k += len(obs)
		}
		return float64(shift) * math.Ln2, nil
	}
	refit := func() float64 {
		return max(m.refit(0, ws.gamma[:total], sequences), m.refit(1, ws.gamma[total:], sequences))
	}
	backward := func(idx []int) { ws.backwardPair(idx, ws.gamma) }
	// An extrapolated variance under the floor refit keeps is infeasible
	// (a mean that is not finite fails the pass).
	feasible := func() bool { return min(m.Var[0], m.Var[1]) >= m.varFloor() }
	theta := [][]float64{m.Pi, m.A[0], m.A[1], m.Mean, m.Var}
	return ws.baumWelch(theta, ws.seqs, total, cfg, emit, backward, refit, feasible)
}

// refit re-estimates state i's mean and variance from its γ row, one
// entry per step of the sequences laid end to end, and returns the larger
// of the two moves. A state with no posterior mass keeps its moments.
func (m *Gaussian) refit(i int, gamma []float64, sequences [][]float64) float64 {
	var mass, sum, sq float64
	for _, obs := range sequences {
		for t, x := range obs {
			g := gamma[t]
			mass += g
			sum += g * x
			sq += g * x * x
		}
		gamma = gamma[len(obs):]
	}
	if !(mass > 0) {
		return 0
	}
	mean := sum / mass
	variance := sq/mass - mean*mean
	if floor := m.varFloor(); variance < floor {
		variance = floor
	}
	moved := max(math.Abs(mean-m.Mean[i]), math.Abs(variance-m.Var[i]))
	m.Mean[i], m.Var[i] = mean, variance
	return moved
}

// ViterbiWS decodes the most likely state sequence into path (grown only
// when its capacity is insufficient) and returns it with its log score.
// The log emission pair of a step is evaluated directly in log space
// (log coef + d²·(−1/2σ²)), which both avoids exp/log round trips and
// keeps far-tail observations finite.
func (m *Gaussian) ViterbiWS(ws *Workspace, obs []float64, path []int) ([]int, float64, error) {
	g, err := m.check(obs)
	if err != nil {
		return nil, 0, err
	}
	tp := ws.ring().Start()
	l0, l1 := safeLog(g.coef[0]), safeLog(g.coef[1])
	ws.le = grow(ws.le, len(obs))
	for t, x := range obs {
		d0, d1 := x-g.mean[0], x-g.mean[1]
		ws.le[t] = [2]float64{l0 + d0*d0*g.negInv[0], l1 + d1*d1*g.negInv[1]}
	}
	path, best := ws.viterbi(m.Pi, m.A, len(obs), path)
	ws.fr.Probe(flightrec.ProbeHMMViterbi, tp, int64(len(obs)), ws.frParent)
	return path, best, nil
}

// PosteriorWS computes the posterior lattice gamma[i*T+t] =
// P(state_t = i | obs, model) into dst, growing it only when its capacity
// is insufficient, and returns it; row i is state i's posterior over the
// whole sequence.
func (m *Gaussian) PosteriorWS(ws *Workspace, obs []float64, dst []float64) ([]float64, error) {
	g, err := m.check(obs)
	if err != nil {
		return nil, err
	}
	ws.tables(m.A, len(obs), 0)
	ws.fillDensities(g, obs, 0)
	return ws.posterior(m.Pi, len(obs), dst)
}
