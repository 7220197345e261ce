package nlp

import (
	"cmp"
	"math"
	"slices"

	"github.com/social-sensing/sstd/internal/textutil"
)

// binaryNB is a multinomial Naive Bayes model over two classes (positive /
// negative) with Laplace smoothing — the shared core behind the hedge and
// stance classifiers. Training leaves only what scoring reads: the two
// log-likelihood tables and the log priors.
type binaryNB struct {
	// keys is the vocabulary as sorted token hashes; logPos and logNeg
	// are indexed like it.
	keys           []uint64
	logPos, logNeg []float64
	priorPos       float64
	priorNeg       float64
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
	}
	vocab := make([]string, 0, len(counts))
	for t := range counts {
		vocab = append(vocab, t)
	}
	slices.SortFunc(vocab, func(a, b string) int { return cmp.Compare(textutil.Hash(a), textutil.Hash(b)) })
	v := float64(len(vocab))
	for _, t := range vocab {
		nb.keys = append(nb.keys, textutil.Hash(t))
		nb.logPos = append(nb.logPos, math.Log((counts[t][1]+1)/(totals[1]+v)))
		nb.logNeg = append(nb.logNeg, math.Log((counts[t][0]+1)/(totals[0]+v)))
	}
	return nb
}

// probPositive returns P(positive | doc), clamped strictly inside (0,1).
func (nb *binaryNB) probPositive(d textutil.Doc) float64 {
	logPos, logNeg := nb.priorPos, nb.priorNeg
	for _, t := range d.Tokens {
		if idx, ok := slices.BinarySearch(nb.keys, textutil.Hash(t)); ok {
			logPos += nb.logPos[idx]
			logNeg += nb.logNeg[idx]
		}
	}
	m := math.Max(logPos, logNeg)
	pp := math.Exp(logPos - m)
	pn := math.Exp(logNeg - m)
	p := pp / (pp + pn)
	const eps = 1e-4
	return math.Min(1-eps, math.Max(eps, p))
}
