package hmm

import (
	"math"
	"sync"

	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// Workspace holds the flat, strided scratch buffers behind every HMM
// kernel: the model parameters flattened row-major (probability and
// log space), the forward/backward lattices, the Baum-Welch expected-count
// accumulators and the Viterbi lattice with its backpointers. Buffers grow
// on demand and are retained between calls, so a warmed workspace makes
// the steady-state kernels (BaumWelchWS, ViterbiWS, PosteriorWS) perform
// zero heap allocations — the property the per-task WCET budget of the
// paper's control loop (Eq. 10) depends on.
//
// A Workspace is not safe for concurrent use; give each goroutine its own
// (NewWorkspace) or borrow one from the shared pool (GetWorkspace /
// PutWorkspace), which is what the old allocating entry points do
// internally.
type Workspace struct {
	// Flattened parameters, loaded from a model at kernel entry.
	a  []float64 // A, n*n row-major
	b  []float64 // B, n*sym row-major (discrete only)
	la []float64 // log A, n*n (Viterbi)
	lb []float64 // log B, n*sym (discrete Viterbi)
	lp []float64 // log Pi, n (Viterbi)

	// Gaussian emission precomputes: density(i,x) =
	// gCoef[i] * exp((x-mean)^2 * gNegInv[i]) with gCoef = 1/(σ√2π) and
	// gNegInv = -1/(2σ²); gLogCoef carries log gCoef for log-space Viterbi.
	gCoef    []float64
	gNegInv  []float64
	gLogCoef []float64

	// Lattices: alpha/beta/delta/le are T*n row-major, scale is T,
	// psi holds the T*n Viterbi backpointers; le is the per-step emission
	// log lattice Viterbi runs on.
	alpha []float64
	beta  []float64
	delta []float64
	le    []float64
	scale []float64
	psi   []int32

	// Baum-Welch accumulators and per-step scratch.
	piAcc []float64 // n
	aNum  []float64 // n*n
	bNum  []float64 // n*sym (discrete)
	gSum  []float64 // n (gaussian gamma mass)
	oSum  []float64 // n (gaussian weighted obs)
	oSq   []float64 // n (gaussian weighted obs²)
	gamma []float64 // n per-step posterior scratch
	row   []float64 // max(n, sym) old-row scratch for warm-start deltas

	// Fused 2-state Baum-Welch pass: pair[k] is the per-iteration table
	// {a_i0*b_0(k), a_i1*b_1(k)} for i = 0, 1 and rescaled lists the steps
	// after which the forward sweep rescaled α (see forwardPair).
	pair     [][4]float64
	rescaled []int32

	// Flight-recorder hookup: kernels probe phase timings into fr (one
	// private ring per workspace — the workspace's single-goroutine
	// contract makes it single-writer), tagging events with frParent,
	// the tracer span that owns the current work. Both stay zero-cost
	// when no recorder is enabled.
	fr       *flightrec.Ring
	frParent int64
}

// SetFlightParent tags subsequent kernel probe events with the owning
// tracer span ID (0 clears) — e.g. the dtm decode span, so a deep-dive
// dump nests EM iterations under the job that ran them.
func (ws *Workspace) SetFlightParent(parent int64) { ws.frParent = parent }

// ring returns the workspace's flight-recorder ring, acquiring it
// lazily (and caching it) once a recorder is enabled. With no recorder
// the lookup is an atomic load + nil check per kernel call.
func (ws *Workspace) ring() *flightrec.Ring {
	if ws.fr == nil {
		ws.fr = flightrec.Fresh("hmm")
	}
	return ws.fr
}

// NewWorkspace returns an empty workspace; buffers are allocated lazily by
// the first kernel call and reused afterwards.
func NewWorkspace() *Workspace { return new(Workspace) }

var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace borrows a workspace from the shared pool. Return it with
// PutWorkspace when the kernel results have been consumed.
func GetWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// PutWorkspace returns a workspace to the shared pool. The caller must not
// touch buffers handed out by kernels on this workspace afterwards.
func PutWorkspace(ws *Workspace) {
	if ws != nil {
		wsPool.Put(ws)
	}
}

// growF returns s resized to n entries, reallocating only when the
// capacity is insufficient. Contents are unspecified; kernels fully
// overwrite or explicitly zero what they use.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// zeroF clears s (compiles to a memclr).
func zeroF(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// loadDiscrete flattens m's parameters into the workspace for the
// probability-space kernels (forward, backward, Baum-Welch E-step).
func (ws *Workspace) loadDiscrete(m *Discrete) (n, sym int) {
	n, sym = m.States(), m.Symbols()
	ws.a = growF(ws.a, n*n)
	for i, row := range m.A {
		copy(ws.a[i*n:(i+1)*n], row)
	}
	ws.b = growF(ws.b, n*sym)
	for i, row := range m.B {
		copy(ws.b[i*sym:(i+1)*sym], row)
	}
	return n, sym
}

// loadDiscreteLogs flattens m's parameters in log space for Viterbi, so
// the lattice recursion performs no math.Log calls.
func (ws *Workspace) loadDiscreteLogs(m *Discrete) (n, sym int) {
	n, sym = m.States(), m.Symbols()
	ws.la = growF(ws.la, n*n)
	for i, row := range m.A {
		for j, v := range row {
			ws.la[i*n+j] = safeLog(v)
		}
	}
	ws.lb = growF(ws.lb, n*sym)
	for i, row := range m.B {
		for k, v := range row {
			ws.lb[i*sym+k] = safeLog(v)
		}
	}
	ws.lp = growF(ws.lp, n)
	for i, v := range m.Pi {
		ws.lp[i] = safeLog(v)
	}
	return n, sym
}

// loadGaussian flattens A and precomputes the per-state density constants
// 1/(σ√2π) and -1/(2σ²) so each emission density costs one multiply and
// one exp instead of a division and a square root.
func (ws *Workspace) loadGaussian(m *Gaussian) int {
	n := m.States()
	ws.a = growF(ws.a, n*n)
	for i, row := range m.A {
		copy(ws.a[i*n:(i+1)*n], row)
	}
	ws.gCoef = growF(ws.gCoef, n)
	ws.gNegInv = growF(ws.gNegInv, n)
	for i := 0; i < n; i++ {
		v := m.Var[i]
		ws.gCoef[i] = 1 / math.Sqrt(2*math.Pi*v)
		ws.gNegInv[i] = -1 / (2 * v)
	}
	return n
}

// loadGaussianLogs additionally prepares log-space constants for Viterbi:
// log density(i,x) = gLogCoef[i] + (x-mean)² * gNegInv[i]. Working in log
// space directly also keeps far-tail observations finite where the
// exp-then-log form underflows to -Inf.
func (ws *Workspace) loadGaussianLogs(m *Gaussian) int {
	n := ws.loadGaussian(m)
	ws.la = growF(ws.la, n*n)
	for i, row := range m.A {
		for j, v := range row {
			ws.la[i*n+j] = safeLog(v)
		}
	}
	ws.lp = growF(ws.lp, n)
	for i, v := range m.Pi {
		ws.lp[i] = safeLog(v)
	}
	ws.gLogCoef = growF(ws.gLogCoef, n)
	for i := 0; i < n; i++ {
		ws.gLogCoef[i] = safeLog(ws.gCoef[i])
	}
	return n
}
