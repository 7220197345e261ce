package hmm

import (
	"math/bits"
)

// Discrete EM runs the fused pass over pieces of symbol runs instead of
// steps. The symbols never change across iterations and every step of a
// run of symbol s multiplies by the same table M_s, so a run of L steps
// is cut once per call into its binary pieces, 2^l steps for each bit l
// of L, and each piece costs one 2×2 step through M_s^(2^l). On a
// quantized ACS series that is about a quarter of the steps. Tables are
// laid out level-major: with sym symbols, table l·sym+s holds
// M_s^(2^l), so table s is the step table itself.

// cutPieces lays the sequences out for discrete EM in ws.pieces, sliced
// per sequence in ws.seqs: each sequence's step-0 symbol, then the table
// ids of the pieces of its steps 1..T-1, largest first within a run. It
// records each symbol's highest level in ws.top (-1 if the symbol has no
// step after step 0), counts the pieces per table in ws.uses and sizes
// and clears the accumulators ws.w.
func (ws *Workspace) cutPieces(sequences [][]int, sym int) {
	ws.top = grow(ws.top, sym)
	for s := range ws.top {
		ws.top[s] = -1
	}
	pieces, levels := ws.pieces[:0], 1
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
			top := bits.Len(uint(run)) - 1
			ws.top[s] = max(ws.top[s], top)
			levels = max(levels, top+1)
			for l := top; l >= 0; l-- {
				if run>>l&1 == 1 {
					pieces = append(pieces, l*sym+s)
				}
			}
		}
		// Only the length counts here: append may have moved pieces.
		ws.seqs = append(ws.seqs, pieces[start:])
	}
	ws.pieces = pieces
	for i, seq := range ws.seqs {
		ws.seqs[i], pieces = pieces[:len(seq)], pieces[len(seq):]
	}
	n := levels * sym
	ws.w, ws.uses, ws.lift = grow(ws.w, n), grow(ws.uses, n), grow(ws.lift, n)
	clear(ws.w)
	clear(ws.uses)
	for _, seq := range ws.seqs {
		for _, id := range seq[1:] {
			ws.uses[id]++
		}
	}
}

// powers fills the tables above level 0 by squaring, M_s^(2^l) =
// (M_s^(2^(l-1)))², for each symbol up to its highest level. Every table
// of a symbol that has pieces is prescaled by 2^64 until its largest row
// sum is above 2⁻⁶⁴, and ws.lift records how often for the table's own
// level. A power of a small emission thus never underflows, and the
// prescale multiplies α, β and the accumulators' forms alike, so only the
// log-likelihood needs it back: powers returns minus the log of all the
// prescale the pieces pick up.
func (ws *Workspace) powers() float64 {
	sym, pair, lift, uses := ws.sym, ws.pair, ws.lift, ws.uses
	total := 0
	for s, top := range ws.top[:sym] {
		scale := 0 // the power of 2^64 the current level is prescaled by
		for l, id := 0, s; l <= top; l, id = l+1, id+sym {
			p := &pair[id]
			if l > 0 {
				q := &pair[id-sym]
				b, t := q[1]*q[2], q[0]+q[3]
				*p = [4]float64{q[0]*q[0] + b, q[1] * t, q[2] * t, q[3]*q[3] + b}
			}
			e, r := 0, p[0]+p[1]
			if r1 := p[2] + p[3]; r1 > r {
				r = r1
			}
			for ; r > 0 && r <= pairRescaleBelow; r *= pairRescaleBy {
				p[0], p[1], p[2], p[3] = p[0]*pairRescaleBy, p[1]*pairRescaleBy, p[2]*pairRescaleBy, p[3]*pairRescaleBy
				e++
			}
			lift[id] = e
			scale = 2*scale + e
			total += uses[id] * scale
		}
	}
	return -float64(total) * pairRescaleLog
}

// backwardPieces is backwardPair over one sequence's pieces: β̃ steps back
// through each piece's table, with backwardPair's rescale bookkeeping by
// piece boundary. Σξ over a piece is a bilinear form in α̃ at its start
// and β̃ at its end, so instead of ξ the sweep adds their outer product to
// the piece table's accumulator w[id]; foldPieces then turns the
// accumulators into Σξ and γ.
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
// ws.gamma and clears them. Σξ_ij over a piece of level l is ⟨U^ij_l, W⟩
// for W = α̃ ⊗ β̃ and a 2×2 form U^ij_l; level 0 has U^ij_0 = M_ij at (i, j),
// and a piece is two pieces a level down, so U_l = U_l-1·P + P·U_l-1 with
// P = M_s^(2^(l-1)), times the level's prescale. Rather than build the
// U tables, each symbol's accumulator is pushed from its highest level
// down through the adjoint, W_l-1 += W_l·Pᵀ + Pᵀ·W_l, to level 0, where
// ξ_ij = M_ij·W[i][j]. A column sum of ξ is γ of the steps ξ ends at.
func (ws *Workspace) foldPieces() {
	sym, pair, w, lift := ws.sym, ws.pair, ws.w, ws.lift
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
		if l < 0 { // no piece of symbol s
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
// by step or k is 0, and otherwise the step within piece k found by
// walking it one step table at a time from α at its start.
func (ws *Workspace) zeroStep(idx []int, k int) int {
	sym := ws.sym
	if sym == 0 || k == 0 {
		return k
	}
	t := 1
	for _, id := range idx[1:k] {
		t += 1 << (id / sym)
	}
	m := &ws.pair[idx[k]%sym]
	p0, p1 := ws.alpha[2*k-2], ws.alpha[2*k-1]
	for end := t + 1<<(idx[k]/sym) - 1; t < end; t++ {
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
