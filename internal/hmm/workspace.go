package hmm

import "github.com/social-sensing/sstd/internal/obs/flightrec"

// Workspace holds the scratch buffers behind every HMM kernel: the step
// tables, the forward lattice, the expected-count accumulators and the
// Viterbi backpointers. Buffers grow on demand and are retained between
// calls, so a warmed workspace makes the kernels (BaumWelchWS, ViterbiWS,
// PosteriorWS) perform zero heap allocations — the property the per-task
// WCET budget of the paper's control loop (Eq. 10) depends on.
//
// A Workspace is not safe for concurrent use; give each goroutine its own.
type Workspace struct {
	// a is the transition matrix A, row-major, loaded at kernel entry.
	a [4]float64

	// Tables: entry k holds an emission pair (e_0, e_1) and a 2×2 matrix,
	// by step the step matrix M[i][j] = a_ij·e_j. For EM sym is the
	// alphabet size, entry l·sym+s below base holds M_s^(2^l) and entry
	// base+r run table runs[r] (pieces.go), and seqs slices pieces per
	// sequence; for a posterior sym is 0 and steps is the by-step index
	// (0, 1, 2, …).
	emit  [][2]float64
	pair  [][4]float64
	sym   int
	base  int
	steps []int
	seqs  [][]int

	// EM's runs, cut once per call: the table ids, each symbol's
	// highest level, the run tables and, per symbol, the run table of
	// each length (zero between calls); per table the runs through it,
	// the prescale of its own product and of all the products it is made
	// of (in powers of 2^64), and the accumulator of α̃ ⊗ β̃.
	pieces []int
	top    []int
	runs   []runTable
	runAt  [][]int32
	uses   []int
	lift   []int
	scale  []int
	w      [][4]float64

	// The unnormalised forward lattice (2 per index) and its rescaled
	// indices.
	alpha    []float64
	rescaled []int32

	// Baum-Welch accumulators: γ_0, Σξ and the two γ rows, per symbol;
	// and the SQUAREM cycle's θ0, θ1 and θ2, each laid end to end.
	piAcc [2]float64
	aNum  [4]float64
	gamma []float64
	theta []float64

	// Viterbi's backpointers, one byte per step.
	psi []uint8

	// Kernels probe phase timings into fr, a private single-writer ring,
	// tagged with frParent, the tracer span that owns the current work.
	fr       *flightrec.Ring
	frParent int64
}

// NewWorkspace returns an empty workspace; buffers are allocated lazily by
// the first kernel call and reused afterwards.
func NewWorkspace() *Workspace { return new(Workspace) }

// SetFlightParent tags later kernel probe events with the owning tracer
// span ID (0 clears), so a deep-dive dump nests EM under its job.
func (ws *Workspace) SetFlightParent(parent int64) { ws.frParent = parent }

// ring returns the workspace's flight-recorder ring, acquired lazily once
// a recorder is enabled; without one it costs an atomic load per call.
func (ws *Workspace) ring() *flightrec.Ring {
	if ws.fr == nil {
		ws.fr = flightrec.Fresh("hmm")
	}
	return ws.fr
}

// grow returns s resized to n entries, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// tables loads A for setEntry, sizes the tables to n entries and records
// sym, the alphabet size when they hold EM's powers (0 by step).
func (ws *Workspace) tables(A [][]float64, n, sym int) {
	ws.a = [4]float64{A[0][0], A[0][1], A[1][0], A[1][1]}
	ws.emit, ws.pair = grow(ws.emit, n), grow(ws.pair, n)
	ws.sym = sym
}

// setEntry stores table entry k: the emission pair and its step matrix.
func (ws *Workspace) setEntry(k int, e0, e1 float64) {
	a := &ws.a
	ws.emit[k] = [2]float64{e0, e1}
	ws.pair[k] = [4]float64{a[0] * e0, a[1] * e1, a[2] * e0, a[3] * e1}
}

// stepIndex returns 0, 1, …, T-1: the table index of a sequence whose
// tables are filled by step.
func (ws *Workspace) stepIndex(T int) []int {
	for t := len(ws.steps); t < T; t++ {
		ws.steps = append(ws.steps, t)
	}
	return ws.steps[:T]
}
