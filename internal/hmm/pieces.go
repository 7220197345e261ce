package hmm

import "math/bits"

// EM runs the fused pass over symbol runs instead of steps. The
// symbols never change across iterations and every step of a run of
// symbol s multiplies by the same table M_s, so the sequences are cut
// once per call into runs, and a run of L steps costs one 2×2 step
// through M_s^L. With sym symbols, table l·sym+s holds the binary power
// M_s^(2^l), so table s is the step table itself. Any other L gets a run
// table past the binary ones, Q(s, L) = M_s^(2^h)·Q(s, L − 2^h) for 2^h
// the top bit of L, shared by every run of that symbol and length and by
// every longer run whose tail it is.

// runTable is M_s^n for a run of n steps of symbol s, n not a power of
// two, and the ids of its head and tail.
type runTable struct{ s, n, head, tail int }

// cutPieces lays the sequences out for EM in ws.pieces, sliced
// per sequence in ws.seqs: each sequence's step-0 symbol, then the table
// id of each run of its steps 1..T-1. It sizes the binary tables for the
// longest sequence, records each symbol's highest level in ws.top (-1 if
// the symbol has no step after step 0) and the run tables in ws.runs,
// counts the runs per table in ws.uses and sizes and clears the
// accumulators ws.w.
func (ws *Workspace) cutPieces(sequences [][]int, sym int) {
	longest := 0
	for _, obs := range sequences {
		longest = max(longest, len(obs))
	}
	ws.sym, ws.base = sym, max(1, bits.Len(uint(longest-1)))*sym
	ws.top = grow(ws.top, sym)
	for s := range ws.top {
		ws.top[s] = -1
	}
	ws.uses = grow(ws.uses, ws.base)
	clear(ws.uses)
	ws.runs = ws.runs[:0]
	ws.runAt = append(ws.runAt, make([][]int32, max(0, sym-len(ws.runAt)))...)
	pieces := ws.pieces[:0]
	ws.seqs = ws.seqs[:0]
	for _, obs := range sequences {
		start := len(pieces)
		pieces = append(pieces, obs[0])
		for t := 1; t < len(obs); {
			s, run := obs[t], 1
			for t+run < len(obs) && obs[t+run] == s {
				run++
			}
			t += run
			h := bits.Len(uint(run)) - 1
			ws.top[s] = max(ws.top[s], h)
			id := h*sym + s
			if run != 1<<h {
				id = ws.table(s, run)
			}
			ws.uses[id]++
			pieces = append(pieces, id)
		}
		// Only the length counts here: append may have moved pieces.
		ws.seqs = append(ws.seqs, pieces[start:])
	}
	ws.pieces = pieces
	for i, seq := range ws.seqs {
		ws.seqs[i], pieces = pieces[:len(seq)], pieces[len(seq):]
	}
	for _, r := range ws.runs {
		ws.runAt[r.s][r.n] = 0 // the length index is empty between calls
	}
	n := len(ws.uses)
	ws.w, ws.lift, ws.scale = grow(ws.w, n), grow(ws.lift, n), grow(ws.scale, n)
	clear(ws.w)
}

// table returns the id of the table a run of n steps of symbol s steps
// through, adding its run table, tail first, if the call has none yet.
// ws.runAt[s][n] holds the run table of that length once it is made.
func (ws *Workspace) table(s, n int) int {
	h := bits.Len(uint(n)) - 1
	if n == 1<<h {
		return h*ws.sym + s
	}
	if at := ws.runAt[s]; n < len(at) && at[n] != 0 {
		return int(at[n])
	}
	tail := ws.table(s, n-1<<h)
	id := len(ws.uses)
	ws.runs = append(ws.runs, runTable{s, n, h*ws.sym + s, tail})
	ws.uses = append(ws.uses, 0)
	if n >= len(ws.runAt[s]) {
		ws.runAt[s] = append(ws.runAt[s], make([]int32, n+1-len(ws.runAt[s]))...)
	}
	ws.runAt[s][n] = int32(id)
	return id
}

// powers fills the binary tables above level 0 by squaring, M_s^(2^l) =
// (M_s^(2^(l-1)))², for each symbol up to its highest level, then each
// run table as its head times its tail. Each table is prescaled by 2^64
// until its largest row sum is above 2⁻⁶⁴, ws.lift[id] times, and
// ws.scale[id] adds up the prescale of all the products it is made of. A
// power of a small emission thus never underflows, and the prescale
// multiplies α, β and the accumulators' forms alike, so only the
// log-likelihood needs it back: powers returns minus the log of all the
// prescale the runs pick up.
func (ws *Workspace) powers() float64 {
	sym, pair, lift, scale, uses := ws.sym, ws.pair, ws.lift, ws.scale, ws.uses
	total := 0
	for s, top := range ws.top[:sym] {
		sc := 0 // the power of 2^64 the current level is prescaled by
		for l, id := 0, s; l <= top; l, id = l+1, id+sym {
			p := &pair[id]
			if l > 0 {
				q := &pair[id-sym]
				b, t := q[1]*q[2], q[0]+q[3]
				*p = [4]float64{q[0]*q[0] + b, q[1] * t, q[2] * t, q[3]*q[3] + b}
			}
			lift[id] = prescale(p)
			sc = 2*sc + lift[id]
			scale[id] = sc
			total += uses[id] * sc
		}
	}
	for r, rt := range ws.runs {
		id, h, q := ws.base+r, &pair[rt.head], &pair[rt.tail]
		p := &pair[id]
		*p = [4]float64{h[0]*q[0] + h[1]*q[2], h[0]*q[1] + h[1]*q[3], h[2]*q[0] + h[3]*q[2], h[2]*q[1] + h[3]*q[3]}
		lift[id] = prescale(p)
		scale[id] = scale[rt.head] + scale[rt.tail] + lift[id]
		total += uses[id] * scale[id]
	}
	return -float64(total) * pairRescaleLog
}

// prescale multiplies p by 2^64 until its larger row sum is above 2⁻⁶⁴
// and returns how often it did.
func prescale(p *[4]float64) (e int) {
	for r := max(p[0]+p[1], p[2]+p[3]); r > 0 && r <= pairRescaleBelow; r *= pairRescaleBy {
		p[0], p[1], p[2], p[3] = p[0]*pairRescaleBy, p[1]*pairRescaleBy, p[2]*pairRescaleBy, p[3]*pairRescaleBy
		e++
	}
	return e
}

// backwardPieces is backwardPair over one sequence's runs: β̃ steps back
// through each run's table, with backwardPair's rescale bookkeeping by
// run boundary. Σξ over a run is a bilinear form in α̃ at its start and β̃
// at its end, so instead of ξ the sweep adds their outer product to the
// run table's accumulator w[id]; foldPieces then turns the accumulators
// into Σξ and γ.
func (ws *Workspace) backwardPieces(idx []int) {
	K := len(idx)
	alpha, pair, w, rescaled := ws.alpha[:2*K], ws.pair, ws.w, ws.rescaled
	c0 := 1 / (alpha[2*K-2] + alpha[2*K-1])
	c1 := c0
	first := 0
	for first < len(rescaled) && rescaled[first] == 0 {
		first++
	}
	hi := K - 2
	for e := len(rescaled) - 1; ; e-- {
		lo := 0
		if e >= first {
			lo = int(rescaled[e])
		}
		for k := hi; k >= lo; k-- {
			id := idx[k+1]
			al0, al1 := alpha[2*k], alpha[2*k+1]
			x := &w[id]
			x[0] += al0 * c0
			x[1] += al0 * c1
			x[2] += al1 * c0
			x[3] += al1 * c1
			m := &pair[id]
			c0, c1 = m[0]*c0+m[1]*c1, m[2]*c0+m[3]*c1
		}
		if e < first {
			break
		}
		c0 *= pairRescaleBy
		c1 *= pairRescaleBy
		hi = lo - 1
	}
	g0, g1 := alpha[0]*c0, alpha[1]*c1
	ws.piAcc = [2]float64{ws.piAcc[0] + g0, ws.piAcc[1] + g1}
	o := idx[0]
	ws.gamma[o] += g0
	ws.gamma[ws.sym+o] += g1
	ws.foldPieces()
}

// foldPieces adds the accumulators' expected counts to ws.aNum and
// ws.gamma and clears them. Σξ_ij over a run through a table P is
// ⟨U^ij, W⟩ for W = α̃ ⊗ β̃ and a 2×2 form U^ij of P's product. A run
// table P = H·Q splits the run into its head's steps and then its tail's,
// so its W, lifted by P's own prescale, adds W·Qᵀ to the head's
// accumulator and Hᵀ·W to the tail's. Run tables are pushed latest first,
// since a tail is always made before the tables it is the tail of. Then a
// binary table of level l is two of level l-1, so each symbol's binary
// accumulator is pushed from its highest level down the same way, W_l-1 +=
// W_l·Pᵀ + Pᵀ·W_l for P = M_s^(2^(l-1)), to level 0, where ξ_ij =
// M_ij·W[i][j]. A column sum of ξ is γ of the steps ξ ends at.
func (ws *Workspace) foldPieces() {
	sym, pair, w, lift := ws.sym, ws.pair, ws.w, ws.lift
	for r := len(ws.runs) - 1; r >= 0; r-- {
		rt := &ws.runs[r]
		id := ws.base + r
		v := &w[id]
		x0, x1, x2, x3 := v[0], v[1], v[2], v[3]
		*v = [4]float64{}
		for range lift[id] {
			x0, x1, x2, x3 = x0*pairRescaleBy, x1*pairRescaleBy, x2*pairRescaleBy, x3*pairRescaleBy
		}
		h, q, wh, wt := &pair[rt.head], &pair[rt.tail], &w[rt.head], &w[rt.tail]
		*wh = [4]float64{wh[0] + x0*q[0] + x1*q[1], wh[1] + x0*q[2] + x1*q[3],
			wh[2] + x2*q[0] + x3*q[1], wh[3] + x2*q[2] + x3*q[3]}
		*wt = [4]float64{wt[0] + h[0]*x0 + h[2]*x2, wt[1] + h[0]*x1 + h[2]*x3,
			wt[2] + h[1]*x0 + h[3]*x2, wt[3] + h[1]*x1 + h[3]*x3}
	}
	g0, g1 := ws.gamma[:sym], ws.gamma[sym:2*sym]
	var a00, a01, a10, a11 float64
	for s, l := range ws.top[:sym] {
		var d [4]float64 // what the levels above pass down
		for ; l > 0; l-- {
			id := l*sym + s
			v := &w[id]
			x := [4]float64{v[0] + d[0], v[1] + d[1], v[2] + d[2], v[3] + d[3]}
			*v = [4]float64{}
			for range lift[id] {
				x = [4]float64{x[0] * pairRescaleBy, x[1] * pairRescaleBy, x[2] * pairRescaleBy, x[3] * pairRescaleBy}
			}
			// W·Pᵀ + Pᵀ·W, its terms collected.
			p := &pair[id-sym]
			c, t, u := x[1]*p[1]+x[2]*p[2], p[0]+p[3], x[0]+x[3]
			d = [4]float64{2*x[0]*p[0] + c, x[1]*t + p[2]*u, x[2]*t + p[1]*u, 2*x[3]*p[3] + c}
		}
		if l < 0 { // no run of symbol s
			continue
		}
		v, m := &w[s], &pair[s]
		x00, x01 := m[0]*(v[0]+d[0]), m[1]*(v[1]+d[1])
		x10, x11 := m[2]*(v[2]+d[2]), m[3]*(v[3]+d[3])
		*v = [4]float64{}
		a00, a01, a10, a11 = a00+x00, a01+x01, a10+x10, a11+x11
		g0[s] += x00 + x10
		g1[s] += x01 + x11
	}
	a := &ws.aNum
	a[0], a[1], a[2], a[3] = a[0]+a00, a[1]+a01, a[2]+a10, a[3]+a11
}

// zeroStep names the step at which the forward mass first is zero, given
// that it is zero at index k of idx: k itself when the tables are filled
// by step or k is 0, and otherwise the step within run k found by walking
// it one step table at a time from α at its start.
func (ws *Workspace) zeroStep(idx []int, k int) int {
	if ws.sym == 0 || k == 0 {
		return k
	}
	t, s, n := 1, 0, 0 // t ends at run k's first step, of symbol s and n steps
	for _, id := range idx[1 : k+1] {
		t += n
		if s, n = id%ws.sym, 1<<(id/ws.sym); id >= ws.base {
			s, n = ws.runs[id-ws.base].s, ws.runs[id-ws.base].n
		}
	}
	m := &ws.pair[s]
	p0, p1 := ws.alpha[2*k-2], ws.alpha[2*k-1]
	for end := t + n - 1; t < end; t++ {
		p0, p1 = p0*m[0]+p1*m[2], p0*m[1]+p1*m[3]
		s := p0 + p1
		if s <= 0 {
			break
		}
		for ; s < pairRescaleBelow; s *= pairRescaleBy {
			p0 *= pairRescaleBy
			p1 *= pairRescaleBy
		}
	}
	return t
}
