package core

import (
	"sync"

	"github.com/social-sensing/sstd/internal/hmm"
	"github.com/social-sensing/sstd/internal/socialsensing"
)

// DecodeScratch bundles every reusable buffer one decode of one claim
// needs: the HMM kernel workspace plus the quantized observation, Viterbi
// path, truth and ACS series slices. A warmed scratch makes the steady-
// state decode path (Engine.DecodeClaimInto, Decoder.DecodeWithScratch)
// allocation-free. Not safe for concurrent use; give each decoding
// goroutine its own, or let the scratch-less entry points borrow one from
// the internal pool.
type DecodeScratch struct {
	ws     *hmm.Workspace
	obs    []int
	path   []int
	truth  []socialsensing.TruthValue
	series []float64
	seqI   [][]int
}

// NewDecodeScratch returns an empty scratch; buffers are allocated by the
// first decode and reused afterwards.
func NewDecodeScratch() *DecodeScratch {
	return &DecodeScratch{ws: hmm.NewWorkspace()}
}

// SetFlightParent tags the flight-recorder events of kernels running on
// this scratch with the owning tracer span ID (0 clears) — the dtm sets
// it to the decode span before finalize so deep-dive dumps nest EM
// phases under the job that ran them.
func (sc *DecodeScratch) SetFlightParent(parent int64) {
	sc.ws.SetFlightParent(parent)
}

var scratchPool = sync.Pool{New: func() any { return NewDecodeScratch() }}

func getScratch() *DecodeScratch   { return scratchPool.Get().(*DecodeScratch) }
func putScratch(sc *DecodeScratch) { scratchPool.Put(sc) }

// seqInt stages obs as the scratch's reusable single-sequence batch.
func (sc *DecodeScratch) seqInt(obs []int) [][]int {
	sc.seqI = append(sc.seqI[:0], obs)
	return sc.seqI
}

// pathToTruthInto maps a Viterbi state path to truth values into dst,
// growing it only when capacity is insufficient.
func pathToTruthInto(path []int, trueState int, dst []socialsensing.TruthValue) []socialsensing.TruthValue {
	if cap(dst) < len(path) {
		dst = make([]socialsensing.TruthValue, len(path))
	} else {
		dst = dst[:len(path)]
	}
	for i, s := range path {
		if s == trueState {
			dst[i] = socialsensing.True
		} else {
			dst[i] = socialsensing.False
		}
	}
	return dst
}
