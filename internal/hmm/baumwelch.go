package hmm

import (
	"fmt"
	"math"

	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// WarmStartParamTol is the parameter-space convergence threshold used by
// warm-started training: when an EM update moves no probability (or
// Gaussian moment) by more than this, the seeded parameters are already at
// the EM fixed point and training stops after that single iteration.
const WarmStartParamTol = 1e-9

// TrainConfig controls Baum-Welch training.
type TrainConfig struct {
	// MaxIterations bounds EM iterations. Default 100.
	MaxIterations int
	// Tolerance stops training when the log-likelihood improvement per
	// iteration drops below it. Default 1e-6.
	Tolerance float64
	// SmoothA, SmoothB and SmoothPi are pseudo-counts added to the
	// re-estimated transition, emission and initial distributions to keep
	// every probability strictly positive (important for short, sparse
	// social sensing sequences). Defaults 1e-3.
	SmoothA, SmoothB, SmoothPi float64
	// FreezeEmissions skips the emission (B) re-estimation, fitting only
	// the transition matrix and initial distribution. With informative
	// emission priors and a single short training sequence per claim,
	// full EM can drift the state semantics; freezing B keeps the states
	// anchored while still learning the truth dynamics.
	FreezeEmissions bool
	// WarmStart declares that the model's current parameters are a
	// previous fit of (a prefix of) the same data rather than a cold
	// init. Training then additionally converges in parameter space:
	// when an iteration's M-step moves no parameter by more than
	// WarmStartParamTol the seeded model is already at the EM fixed point
	// and training stops after that iteration, instead of paying the
	// two-iteration minimum the log-likelihood criterion needs. The
	// numeric updates are unchanged — a warm run on fresh data follows
	// exactly the same EM trajectory it would cold from those parameters.
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
	Iterations    int
	LogLikelihood float64
	Converged     bool
	// WarmStarted records that this fit ran with TrainConfig.WarmStart
	// from pre-seeded parameters.
	WarmStarted bool
}

// BaumWelch fits the model in place to one or more observation sequences by
// expectation maximization (the paper's Eq. 5, solved with the classic
// Baum 1970 procedure), returning the final log-likelihood. Multiple
// sequences are combined by accumulating expected counts across sequences.
func (m *Discrete) BaumWelch(sequences [][]int, cfg TrainConfig) (TrainResult, error) {
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	return m.BaumWelchWS(ws, sequences, cfg)
}

// BaumWelchWS is BaumWelch running entirely on ws's flat buffers: the
// E-step lattices, the expected-count accumulators and the flattened
// parameter copies are all reused, so steady state performs zero heap
// allocations. ws must not be shared with concurrent kernel calls.
func (m *Discrete) BaumWelchWS(ws *Workspace, sequences [][]int, cfg TrainConfig) (TrainResult, error) {
	cfg.fillDefaults()
	if len(sequences) == 0 {
		return TrainResult{}, ErrEmptySequence
	}
	for _, obs := range sequences {
		if err := m.checkObs(obs); err != nil {
			return TrainResult{}, err
		}
	}
	n, sym := m.States(), m.Symbols()
	ws.piAcc = growF(ws.piAcc, n)
	ws.aNum = growF(ws.aNum, n*n)
	ws.bNum = growF(ws.bNum, n*sym)
	ws.gamma = growF(ws.gamma, n)
	ws.row = growF(ws.row, max(n, sym))
	prevLL := math.Inf(-1)
	res := TrainResult{WarmStarted: cfg.WarmStart}
	fr, frParent := ws.ring(), ws.frParent
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		piAcc, aNum, bNum, gamma := ws.piAcc, ws.aNum, ws.bNum, ws.gamma
		zeroF(piAcc)
		zeroF(aNum)
		zeroF(bNum)
		ws.loadDiscrete(m)
		totalLL := 0.0

		// Flight-recorder phase probes chain one timestamp through the
		// iteration: forward/backward (and, for n > 2, the E-step) per
		// sequence, then the M-step, each tagged with the iteration number.
		tp := fr.Start()
		// Per-symbol γ is read only by the emission re-estimate.
		symGamma := bNum
		if cfg.FreezeEmissions {
			symGamma = nil
		}
		if n == 2 {
			ws.loadPairTable(sym)
		}
		for _, obs := range sequences {
			T := len(obs)
			if n == 2 {
				// The decoder's models are always 2-state: one fused pass
				// whose backward sweep is also the E-step.
				ll, err := ws.forwardPair(m.Pi, obs, sym)
				if err != nil {
					return res, fmt.Errorf("baum-welch E-step: %w", err)
				}
				tp = fr.Probe(flightrec.ProbeHMMForward, tp, int64(iter), frParent)
				totalLL += ll
				ws.backwardPair(obs, sym, piAcc, aNum, symGamma)
				tp = fr.Probe(flightrec.ProbeHMMBackward, tp, int64(iter), frParent)
				continue
			}
			ll, err := m.forwardWS(ws, obs)
			if err != nil {
				return res, fmt.Errorf("baum-welch E-step: %w", err)
			}
			tp = fr.Probe(flightrec.ProbeHMMForward, tp, int64(iter), frParent)
			totalLL += ll
			m.backwardWS(ws, obs, ws.scale)
			tp = fr.Probe(flightrec.ProbeHMMBackward, tp, int64(iter), frParent)
			a, b, alpha, beta := ws.a, ws.b, ws.alpha, ws.beta
			// gamma[t][i] and xi accumulation.
			for t := 0; t < T; t++ {
				gsum := 0.0
				for i := 0; i < n; i++ {
					g := alpha[t*n+i] * beta[t*n+i]
					gamma[i] = g
					gsum += g
				}
				if gsum <= 0 {
					continue
				}
				ginv := 1 / gsum
				ot := obs[t]
				for i := 0; i < n; i++ {
					g := gamma[i] * ginv
					if t == 0 {
						piAcc[i] += g
					}
					bNum[i*sym+ot] += g
				}
			}
			// xi[t][i][j] without materializing the 3-D tensor. With the
			// scaled alpha/beta used here, xi = alpha[t][i]*A[i][j]*
			// B[j][obs[t+1]]*beta[t+1][j] already normalized per t. The
			// emission-weighted betas are shared across source states;
			// stage them in ws.row once per step.
			en := ws.row[:n]
			for t := 0; t < T-1; t++ {
				on := obs[t+1]
				next := beta[(t+1)*n : (t+2)*n]
				for j := 0; j < n; j++ {
					en[j] = b[j*sym+on] * next[j]
				}
				for i := 0; i < n; i++ {
					ai := alpha[t*n+i]
					if ai == 0 {
						continue
					}
					for j := 0; j < n; j++ {
						aNum[i*n+j] += ai * a[i*n+j] * en[j]
					}
				}
			}
			tp = fr.Probe(flightrec.ProbeHMMEStep, tp, int64(iter), frParent)
		}

		// M-step with smoothing pseudo-counts. Under WarmStart, track the
		// largest parameter movement for the fixed-point early stop.
		maxDelta := 0.0
		for i := 0; i < n; i++ {
			piAcc[i] += cfg.SmoothPi
		}
		normalizeRow(piAcc)
		if cfg.WarmStart {
			for i := 0; i < n; i++ {
				maxDelta = math.Max(maxDelta, math.Abs(piAcc[i]-m.Pi[i]))
			}
		}
		copy(m.Pi, piAcc)
		for i := 0; i < n; i++ {
			rowA := m.A[i]
			if cfg.WarmStart {
				copy(ws.row[:n], rowA)
			}
			for j := 0; j < n; j++ {
				rowA[j] = aNum[i*n+j] + cfg.SmoothA
			}
			normalizeRow(rowA)
			if cfg.WarmStart {
				for j := 0; j < n; j++ {
					maxDelta = math.Max(maxDelta, math.Abs(rowA[j]-ws.row[j]))
				}
			}
			if !cfg.FreezeEmissions {
				rowB := m.B[i]
				if cfg.WarmStart {
					copy(ws.row[:sym], rowB)
				}
				for k := 0; k < sym; k++ {
					rowB[k] = bNum[i*sym+k] + cfg.SmoothB
				}
				normalizeRow(rowB)
				if cfg.WarmStart {
					for k := 0; k < sym; k++ {
						maxDelta = math.Max(maxDelta, math.Abs(rowB[k]-ws.row[k]))
					}
				}
			}
		}

		fr.Probe(flightrec.ProbeHMMMStep, tp, int64(iter), frParent)
		res.Iterations = iter + 1
		res.LogLikelihood = totalLL
		if totalLL-prevLL < cfg.Tolerance && iter > 0 {
			res.Converged = true
			break
		}
		if cfg.WarmStart && maxDelta < WarmStartParamTol {
			res.Converged = true
			break
		}
		prevLL = totalLL
	}
	return res, nil
}

// The 2-state EM pass keeps α and β unnormalised and rescales them only
// when the running α mass drops below pairRescaleBelow, always by the
// same power of two. Multiplying by a power of two changes the exponent
// field and nothing else, so the rescaled recursions carry exactly the
// mantissas of the unscaled ones: the scaling contributes no rounding,
// needs no reciprocal in either dependency chain, and leaves the
// log-likelihood as log(final mass) minus an integer count of rescales
// times ln 2^64 — one math.Log per sequence. The threshold leaves 958
// binary orders of headroom above the subnormals, so a single step would
// have to shrink the mass by more than 1e-288 to lose precision (the
// per-step normalisation this replaced reached 1e-308).
const (
	pairRescaleBelow = 0x1p-64
	pairRescaleBy    = 0x1p+64
	pairRescaleLog   = 64 * math.Ln2
)

// loadPairTable fills ws.pair with M[k][i][j] = a_ij * b_j(k) from the
// flattened parameters loadDiscrete left in ws, so a recursion step in
// either direction is four multiplies and two adds.
func (ws *Workspace) loadPairTable(sym int) {
	if cap(ws.pair) < sym {
		ws.pair = make([][4]float64, sym)
	}
	ws.pair = ws.pair[:sym]
	a, b := ws.a, ws.b
	for k := range ws.pair {
		b0, b1 := b[k], b[sym+k]
		ws.pair[k] = [4]float64{a[0] * b0, a[1] * b1, a[2] * b0, a[3] * b1}
	}
}

// forwardPair is the forward sweep of the fused 2-state pass. It fills
// ws.alpha (T*2) with the unnormalised α, records in ws.rescaled every
// step after which α was multiplied by pairRescaleBy (once per entry),
// and returns the sequence's log-likelihood.
func (ws *Workspace) forwardPair(pi []float64, obs []int, sym int) (float64, error) {
	T := len(obs)
	ws.alpha = growF(ws.alpha, T*2)
	alpha, pair, rescaled := ws.alpha, ws.pair, ws.rescaled[:0]
	p0 := pi[0] * ws.b[obs[0]]
	p1 := pi[1] * ws.b[sym+obs[0]]
	for t := 0; ; {
		if s := p0 + p1; s < pairRescaleBelow {
			if s <= 0 {
				ws.rescaled = rescaled
				return 0, fmt.Errorf("hmm: zero-probability observation at t=%d", t)
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
		m := &pair[obs[t]]
		p0, p1 = p0*m[0]+p1*m[2], p0*m[1]+p1*m[3]
	}
	ws.rescaled = rescaled
	return math.Log(p0+p1) - float64(len(rescaled))*pairRescaleLog, nil
}

// backwardPair is the backward sweep and the E-step in one: β lives in
// two registers, scaled by the final α mass and by the rescales
// forwardPair recorded, so that α_t(i)·M[o_t+1][i][j]·β_t+1(j) is the
// transition posterior ξ_t(i,j) as it stands — no β lattice, no per-step
// normalisation. It adds Σ_t ξ_t to aNum and γ_0 to piAcc, and, when
// bNum is non-nil (emissions are being re-estimated), γ_t to
// bNum[i][o_t].
func (ws *Workspace) backwardPair(obs []int, sym int, piAcc, aNum, bNum []float64) {
	T := len(obs)
	alpha, pair, rescaled := ws.alpha[:2*T], ws.pair, ws.rescaled
	c0 := 1 / (alpha[2*T-2] + alpha[2*T-1])
	c1 := c0
	if bNum != nil {
		o := obs[T-1]
		bNum[o] += alpha[2*T-2] * c0
		bNum[sym+o] += alpha[2*T-1] * c1
	}
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
			m := &pair[obs[t+1]]
			al0, al1 := alpha[2*t], alpha[2*t+1]
			e00, e01, e10, e11 := m[0]*c0, m[1]*c1, m[2]*c0, m[3]*c1
			c0, c1 = e00+e01, e10+e11
			x00 += al0 * e00
			x01 += al0 * e01
			x10 += al1 * e10
			x11 += al1 * e11
			if bNum != nil {
				o := obs[t]
				bNum[o] += al0 * c0
				bNum[sym+o] += al1 * c1
			}
		}
		if e < first {
			break
		}
		c0 *= pairRescaleBy
		c1 *= pairRescaleBy
		hi = lo - 1
	}
	piAcc[0] += alpha[0] * c0
	piAcc[1] += alpha[1] * c1
	aNum[0] += x00
	aNum[1] += x01
	aNum[2] += x10
	aNum[3] += x11
}
