package hmm

import (
	"fmt"
	"math"

	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// WarmStartParamTol is the parameter-space convergence threshold used by
// warm-started training: when an EM update moves no probability by more
// than this, the seeded parameters are already at the EM fixed point and
// training stops after that single iteration.
const WarmStartParamTol = 1e-9

// TrainConfig controls Baum-Welch training.
type TrainConfig struct {
	// MaxIterations bounds the E-step passes, refused ones included: the
	// per-fit worst case of the WCET term in Eq. 10. Default 100.
	MaxIterations int
	// Tolerance stops training when a plain EM pass raises the objective,
	// the log-likelihood plus the log prior the smoothing pseudo-counts
	// stand for, by less than it. Default 1e-6.
	Tolerance float64
	// SmoothA, SmoothB and SmoothPi are pseudo-counts added to the
	// re-estimated transition, emission and initial distributions to keep
	// every probability strictly positive (important for short, sparse
	// social sensing sequences). Defaults 1e-3.
	SmoothA, SmoothB, SmoothPi float64
	// FreezeEmissions skips the discrete emission (B) re-estimation. With
	// informative emission priors and one short sequence per claim, full
	// EM can drift the state semantics; freezing B keeps the states
	// anchored while still learning the truth dynamics.
	FreezeEmissions bool
	// WarmStart declares that the model's current parameters are a
	// previous fit of (a prefix of) the same data. Training then also
	// stops after an iteration whose M-step moves no parameter by more
	// than WarmStartParamTol, instead of paying the two-iteration minimum
	// the objective criterion needs. The numeric updates are
	// unchanged: a warm run follows the EM trajectory a cold one would
	// from those parameters.
	WarmStart bool
}

// DefaultTrainConfig returns the default training settings.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		MaxIterations: 100,
		Tolerance:     1e-6,
		SmoothA:       1e-3,
		SmoothB:       1e-3,
		SmoothPi:      1e-3,
	}
}

func (c *TrainConfig) fillDefaults() {
	if c.MaxIterations <= 0 {
		c.MaxIterations = 100
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-6
	}
}

// TrainResult reports how training went.
type TrainResult struct {
	// Iterations counts E-step passes; LogLikelihood is that of the
	// parameters the last accepted pass started from.
	Iterations    int
	LogLikelihood float64
	Converged     bool
	// WarmStarted records that this fit ran with TrainConfig.WarmStart
	// from pre-seeded parameters.
	WarmStarted bool
}

// baumWelch is the EM loop (the paper's Eq. 5, solved with the classic
// Baum 1970 procedure) over the runs ws.cutPieces cut last, fitting π, A
// and, unless FreezeEmissions, B in place; multiple sequences are
// combined by accumulating expected counts. Each pass fills the run
// tables (powers returns the log of the prescale folded into them) and
// runs the fused pass over each sequence's runs in ws.seqs —
// forwardPair, then backwardPieces, which adds Σξ to ws.aNum, γ_0 to
// ws.piAcc and the per-symbol γ to ws.gamma — and the M-step
// re-estimates the parameters from those counts.
//
// The passes are plain EM, sped up by safeguarded SQUAREM (Varadhan &
// Roland 2008): after passes θ0 → θ1 → θ2 the next starts from θ′
// (extrapolate) unless θ′ leaves the simplex, and falls back to θ2, with
// no M-step, when it fails or finds the objective below θ1's. The
// objective is the log-likelihood plus logPrior, which smoothed EM never
// lowers; Tolerance applies to its gain over a plain pass.
func (m *Discrete) baumWelch(ws *Workspace, cfg TrainConfig) (TrainResult, error) {
	cfg.fillDefaults()
	sym, seqs := m.Symbols(), ws.seqs
	theta := [][]float64{m.Pi, m.A[0], m.A[1], m.B[0], m.B[1]}
	if cfg.FreezeEmissions {
		theta = theta[:3]
	}
	n := 0
	for _, row := range theta {
		n += len(row)
	}
	// saved holds the cycle's θ0, θ1 and θ2; lead counts the cycle's
	// passes, and the one made at lead 2 starts from θ′.
	ws.theta = grow(ws.theta, 3*n)
	saved, lead := ws.theta, 0
	ws.gamma = grow(ws.gamma, 2*sym)
	gamma := ws.gamma
	prevObj := math.Inf(-1)
	res := TrainResult{WarmStarted: cfg.WarmStart}
	fr, frParent := ws.ring(), ws.frParent
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		if lead < 2 {
			copyTheta(saved[lead*n:], theta, false)
		}
		ws.piAcc, ws.aNum = [2]float64{}, [4]float64{}
		clear(gamma)

		// Flight-recorder probes chain one timestamp through the pass:
		// forward (the first includes the tables) and backward per
		// sequence, then the M-step, each tagged with the pass number.
		tp := fr.Start()
		ws.tables(m.A, len(ws.w), sym)
		for k := range sym {
			ws.setEntry(k, m.B[0][k], m.B[1][k])
		}
		totalLL := ws.powers()
		var err error
		for _, idx := range seqs {
			var ll float64
			if ll, err = ws.forwardPair(m.Pi, idx); err != nil {
				err = fmt.Errorf("baum-welch E-step: %w", err)
				break
			}
			tp = fr.Probe(flightrec.ProbeHMMForward, tp, int64(iter), frParent)
			totalLL += ll
			ws.backwardPieces(idx)
			tp = fr.Probe(flightrec.ProbeHMMBackward, tp, int64(iter), frParent)
		}
		res.Iterations = iter + 1
		obj := totalLL + logPrior(theta, cfg)
		if lead == 2 && (err != nil || !(obj >= prevObj)) {
			copyTheta(saved[2*n:], theta, true)
			lead = 0
			continue
		} else if err != nil {
			return res, err
		}

		// M-step with smoothing pseudo-counts. Under WarmStart the
		// largest parameter move decides the fixed-point early stop.
		moved := max(reestimate(m.Pi, ws.piAcc[:], cfg.SmoothPi),
			reestimate(m.A[0], ws.aNum[:2], cfg.SmoothA),
			reestimate(m.A[1], ws.aNum[2:], cfg.SmoothA))
		if !cfg.FreezeEmissions {
			moved = max(moved, reestimate(m.B[0], gamma[:sym], cfg.SmoothB),
				reestimate(m.B[1], gamma[sym:], cfg.SmoothB))
		}
		fr.Probe(flightrec.ProbeHMMMStep, tp, int64(iter), frParent)

		// θ′'s gain over θ1 is no EM step's and stops nothing.
		res.LogLikelihood = totalLL
		if lead < 2 && obj-prevObj < cfg.Tolerance && iter > 0 || cfg.WarmStart && moved < WarmStartParamTol {
			res.Converged = true
			break
		}
		prevObj = obj
		if lead = (lead + 1) % 3; lead == 2 && iter+1 < cfg.MaxIterations {
			copyTheta(saved[2*n:], theta, false)
			if !extrapolate(saved, theta) {
				copyTheta(saved[2*n:], theta, true)
				lead = 0
			}
		}
	}
	return res, nil
}

// copyTheta lays θ's rows end to end in flat or, back, copies them back.
func copyTheta(flat []float64, theta [][]float64, back bool) {
	for _, row := range theta {
		dst, src := flat, row
		if back {
			dst, src = row, flat
		}
		flat = flat[copy(dst, src):]
	}
}

// logPrior is Σ c·log p over θ's rows, c their pseudo-count:
// the log-density of the Dirichlet prior whose mode the M-step returns.
// Rows that share c share one logarithm, of their product, flushed before
// it falls under 2⁻⁵⁰⁰: a logarithm is most of its cost.
func logPrior(theta [][]float64, cfg TrainConfig) float64 {
	c := [...]float64{cfg.SmoothPi, cfg.SmoothA, cfg.SmoothA, cfg.SmoothB, cfg.SmoothB}
	sum, prod := 0.0, 1.0
	for i, row := range theta {
		if c[i] == 0 {
			continue
		}
		for _, p := range row {
			if prod *= p; prod < 0x1p-500 {
				sum, prod = sum+c[i]*math.Log(prod), 1
			}
		}
		if i+1 == len(theta) || c[i+1] != c[i] {
			sum, prod = sum+c[i]*math.Log(prod), 1
		}
	}
	return sum
}

// extrapolate sets θ to θ′ = θ0 − 2αr + α²v for the θ0, θ1, θ2 in saved,
// r = θ1 − θ0, v = θ2 − 2θ1 + θ0, α = min(−‖r‖/‖v‖, −1), renormalising
// its rows; it refuses a θ′ with an entry that is not positive (past the
// simplex, or no step when v is zero).
func extrapolate(saved []float64, theta [][]float64) bool {
	n := len(saved) / 3
	t0, t1, t2 := saved[:n], saved[n:2*n], saved[2*n:]
	var rr, vv float64
	for k := range n {
		r, v := t1[k]-t0[k], t2[k]-2*t1[k]+t0[k]
		rr, vv = rr+r*r, vv+v*v
	}
	alpha, k := min(-math.Sqrt(rr/vv), -1), 0
	for _, row := range theta {
		sum := 0.0
		for j := range row {
			row[j] = t0[k] - 2*alpha*(t1[k]-t0[k]) + alpha*alpha*(t2[k]-2*t1[k]+t0[k])
			sum, k = sum+row[j], k+1
		}
		for j := range row {
			if row[j] /= sum; !(row[j] > 0) {
				return false
			}
		}
	}
	return true
}

// reestimate sets row to acc plus the smoothing pseudo-count, normalised
// to sum 1, and returns the largest change it made to any entry. A row
// whose sum is not positive — no expected counts and no smoothing — is
// left as is and reports no move.
func reestimate(row, acc []float64, smooth float64) float64 {
	sum := 0.0
	for _, v := range acc {
		sum += v + smooth
	}
	if !(sum > 0) {
		return 0
	}
	moved := 0.0
	for k, v := range acc {
		v = (v + smooth) / sum
		moved = max(moved, math.Abs(v-row[k]))
		row[k] = v
	}
	return moved
}

// The fused pass keeps α and β unnormalised and rescales them only when
// the running α mass drops below pairRescaleBelow, always by the same
// power of two. That changes the exponent field and nothing else: the
// scaling adds no rounding, needs no reciprocal in either dependency
// chain, and leaves the log-likelihood as log(final mass) minus the
// rescale count times ln 2^64 — one math.Log per sequence. The threshold
// leaves 958 binary orders of headroom above the subnormals, so one step
// would have to shrink the mass by more than 1e-288 to lose precision.
// Scaling up is enough because no table grows the mass: a row of M_t
// sums to at most the step's larger emission, a probability, and powers
// prescales each run's table until its largest row sum is in (2⁻⁶⁴, 1].
const (
	pairRescaleBelow = 0x1p-64
	pairRescaleBy    = 0x1p+64
	pairRescaleLog   = 64 * math.Ln2
)

// forwardPair is the forward sweep of the fused pass over the tables at
// the indices idx: step 0's emission pair, then one table per step or per
// symbol run. It fills ws.alpha (len(idx)*2) with the unnormalised α at each
// index, records in ws.rescaled every index after which α was multiplied
// by pairRescaleBy (once per entry), and returns the sequence's
// log-likelihood less the tables' prescale.
func (ws *Workspace) forwardPair(pi []float64, idx []int) (float64, error) {
	T := len(idx)
	ws.alpha = grow(ws.alpha, T*2)
	alpha, pair, rescaled := ws.alpha, ws.pair, ws.rescaled[:0]
	e := &ws.emit[idx[0]]
	p0 := pi[0] * e[0]
	p1 := pi[1] * e[1]
	for t := 0; ; {
		if s := p0 + p1; s < pairRescaleBelow {
			if s <= 0 {
				ws.rescaled = rescaled
				return 0, fmt.Errorf("hmm: zero-probability observation at t=%d", ws.zeroStep(idx, t))
			}
			for ; s < pairRescaleBelow; s *= pairRescaleBy {
				p0 *= pairRescaleBy
				p1 *= pairRescaleBy
				rescaled = append(rescaled, int32(t))
			}
		}
		alpha[2*t], alpha[2*t+1] = p0, p1
		if t++; t == T {
			break
		}
		m := &pair[idx[t]]
		p0, p1 = p0*m[0]+p1*m[2], p0*m[1]+p1*m[3]
	}
	ws.rescaled = rescaled
	return math.Log(p0+p1) - float64(len(rescaled))*pairRescaleLog, nil
}

// backwardPair is the backward sweep and the E-step in one: β lives in
// two registers, scaled by the final α mass and by the rescales
// forwardPair recorded, so that α_t(i)·M_t+1[i][j]·β_t+1(j) is the
// transition posterior ξ_t(i,j) as it stands — no β lattice, no per-step
// normalisation. It adds Σ_t ξ_t to ws.aNum, γ_0 to ws.piAcc and γ_t(i)
// to gamma[i*stride+idx[t]], gamma being two rows of stride entries. The
// tables must be filled by step.
func (ws *Workspace) backwardPair(idx []int, gamma []float64) {
	T, stride := len(idx), len(gamma)/2
	alpha, pair, rescaled := ws.alpha[:2*T], ws.pair, ws.rescaled
	c0 := 1 / (alpha[2*T-2] + alpha[2*T-1])
	c1 := c0
	o := idx[T-1]
	gamma[o] += alpha[2*T-2] * c0
	gamma[stride+o] += alpha[2*T-1] * c1
	// A rescale recorded at step p moved α_p and everything after it, so
	// β picks it up between the steps for t = p and t = p-1; rescales at
	// step 0 have no earlier step to reach.
	first := 0
	for first < len(rescaled) && rescaled[first] == 0 {
		first++
	}
	var x00, x01, x10, x11 float64
	hi := T - 2
	for e := len(rescaled) - 1; ; e-- {
		lo := 0
		if e >= first {
			lo = int(rescaled[e])
		}
		for t := hi; t >= lo; t-- {
			m := &pair[idx[t+1]]
			al0, al1 := alpha[2*t], alpha[2*t+1]
			e00, e01, e10, e11 := m[0]*c0, m[1]*c1, m[2]*c0, m[3]*c1
			c0, c1 = e00+e01, e10+e11
			x00 += al0 * e00
			x01 += al0 * e01
			x10 += al1 * e10
			x11 += al1 * e11
			o := idx[t]
			gamma[o] += al0 * c0
			gamma[stride+o] += al1 * c1
		}
		if e < first {
			break
		}
		c0 *= pairRescaleBy
		c1 *= pairRescaleBy
		hi = lo - 1
	}
	ws.piAcc = [2]float64{ws.piAcc[0] + alpha[0]*c0, ws.piAcc[1] + alpha[1]*c1}
	a := &ws.aNum
	a[0], a[1], a[2], a[3] = a[0]+x00, a[1]+x01, a[2]+x10, a[3]+x11
}

// viterbi is the 2-state log-space Viterbi recursion (Eq. 7-8) over obs,
// its log emission pairs read from ws.emit by symbol. It decodes into
// path, grown only when its capacity is insufficient, and returns it with
// its log score; ok is false at a symbol after the first outside ws.emit.
// A step's two backpointers share a byte, bit j for state j. Ties go to
// the lower state.
func (ws *Workspace) viterbi(pi []float64, A [][]float64, obs []int, path []int) (_ []int, best float64, ok bool) {
	la00, la01 := safeLog(A[0][0]), safeLog(A[0][1])
	la10, la11 := safeLog(A[1][0]), safeLog(A[1][1])
	emit, T := ws.emit, len(obs)
	ws.psi = grow(ws.psi, T)
	psi := ws.psi[:T]
	e := emit[obs[0]]
	d0, d1 := safeLog(pi[0])+e[0], safeLog(pi[1])+e[1]
	for t := 1; t < T; t++ {
		o := obs[t]
		if uint(o) >= uint(len(emit)) {
			return nil, 0, false
		}
		e := &emit[o]
		n0, b0 := argmax(d0+la00, d1+la10)
		n1, b1 := argmax(d0+la01, d1+la11)
		psi[t] = b0 | b1<<1
		d0, d1 = n0+e[0], n1+e[1]
	}
	best, s := argmax(d0, d1)
	path = grow(path, T)
	path[T-1] = int(s)
	for t := T - 1; t > 0; t-- {
		s = psi[t] >> s & 1
		path[t-1] = int(s)
	}
	return path, best, true
}

// argmax returns the larger of v0 and v1 and its state; a tie, or two
// -Inf scores, goes to state 0. Neither is NaN: every log is finite or
// -Inf, and no sum of them is +Inf.
func argmax(v0, v1 float64) (float64, uint8) {
	if v1 > v0 {
		return v1, 1
	}
	return v0, 0
}
