package nlp

import (
	"math"
	"math/bits"

	"github.com/social-sensing/sstd/internal/textutil"
)

// binaryNB is a multinomial Naive Bayes model over two classes (positive /
// negative) with Laplace smoothing, behind the hedge classifier. Training
// leaves only what scoring reads: the vocabulary's log likelihoods and the
// log priors.
type binaryNB struct {
	// vocab holds each token's hash and log likelihoods, open-addressed
	// from the hash's top bits past shift, at most half full.
	vocab    []nbToken
	shift    uint
	priorPos float64
	priorNeg float64
}

type nbToken struct {
	hash           uint64
	logPos, logNeg float64
	used           bool
}

// trainBinaryNB fits the model on n examples, example(i) giving the i-th
// text and whether it is positive. It returns nil when a class has none.
func trainBinaryNB(n int, example func(i int) (text string, positive bool)) *binaryNB {
	// counts[token] is the token's occurrences in {negative, positive}
	// examples; totals and docs are the per-class sums.
	counts := make(map[string][2]float64)
	var totals, docs [2]float64
	for i := range n {
		text, positive := example(i)
		class := 0
		if positive {
			class = 1
		}
		docs[class]++
		for _, t := range textutil.Tokenize(text) {
			c := counts[t]
			c[class]++
			counts[t] = c
			totals[class]++
		}
	}
	if docs[0] == 0 || docs[1] == 0 {
		return nil
	}
	nb := &binaryNB{
		priorPos: math.Log(docs[1] / (docs[1] + docs[0])),
		priorNeg: math.Log(docs[0] / (docs[1] + docs[0])),
		shift:    uint(64 - bits.Len(uint(2*len(counts)))),
	}
	nb.vocab = make([]nbToken, 1<<(64-nb.shift))
	v := float64(len(counts))
	for t, c := range counts {
		h := textutil.Hash(t)
		*nb.lookup(h) = nbToken{h, math.Log((c[1] + 1) / (totals[1] + v)), math.Log((c[0] + 1) / (totals[0] + v)), true}
	}
	return nb
}

// lookup returns the vocabulary entry of hash h, or the unused one where
// its probe ends.
func (nb *binaryNB) lookup(h uint64) *nbToken {
	for j := h >> nb.shift; ; j = (j + 1) & uint64(len(nb.vocab)-1) {
		if e := &nb.vocab[j]; !e.used || e.hash == h {
			return e
		}
	}
}

// probPositive returns P(positive | doc), clamped strictly inside (0,1).
func (nb *binaryNB) probPositive(d *textutil.Doc) float64 {
	logPos, logNeg := nb.priorPos, nb.priorNeg
	for _, h := range d.Hashes {
		if e := nb.lookup(h); e.used {
			logPos += e.logPos
			logNeg += e.logNeg
		}
	}
	m := math.Max(logPos, logNeg)
	pp := math.Exp(logPos - m)
	pn := math.Exp(logNeg - m)
	p := pp / (pp + pn)
	const eps = 1e-4
	return math.Min(1-eps, math.Max(eps, p))
}
