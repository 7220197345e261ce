package nlp

import (
	"errors"
	"math"
	"slices"
	"sort"

	"github.com/social-sensing/sstd/internal/textutil"
)

// binaryNB is a multinomial Naive Bayes model over two classes (positive /
// negative) with Laplace smoothing — the shared core behind the hedge and
// stance classifiers. Training leaves only what scoring reads: the two
// log-likelihood tables and the log priors.
type binaryNB struct {
	// keys is the vocabulary as sorted token hashes; vocab, logPos and
	// logNeg are indexed like it.
	keys           []uint64
	vocab          []string
	logPos, logNeg []float64
	priorPos       float64
	priorNeg       float64
}

// errNBEmptyCorpus is returned when either class has no examples.
var errNBEmptyCorpus = errors.New("nlp: corpus must contain both classes")

// trainBinaryNB fits the model on (text, positive?) examples.
func trainBinaryNB(texts []string, positive []bool) (*binaryNB, error) {
	if len(texts) != len(positive) {
		return nil, errors.New("nlp: texts and labels length mismatch")
	}
	// counts[token] is the token's occurrences in {negative, positive}
	// examples; totals and docs are the per-class sums.
	counts := make(map[string][2]float64)
	var totals, docs [2]float64
	for i, text := range texts {
		class := 0
		if positive[i] {
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
		return nil, errNBEmptyCorpus
	}
	nb := &binaryNB{
		priorPos: math.Log(docs[1] / (docs[1] + docs[0])),
		priorNeg: math.Log(docs[0] / (docs[1] + docs[0])),
		vocab:    make([]string, 0, len(counts)),
	}
	for t := range counts {
		nb.vocab = append(nb.vocab, t)
	}
	sort.Slice(nb.vocab, func(i, j int) bool { return textutil.Hash(nb.vocab[i]) < textutil.Hash(nb.vocab[j]) })
	v := float64(len(nb.vocab))
	for _, t := range nb.vocab {
		nb.keys = append(nb.keys, textutil.Hash(t))
		nb.logPos = append(nb.logPos, math.Log((counts[t][1]+1)/(totals[1]+v)))
		nb.logNeg = append(nb.logNeg, math.Log((counts[t][0]+1)/(totals[0]+v)))
	}
	return nb, nil
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

// scoredToken pairs a vocabulary token with a class-preference score.
type scoredToken struct {
	tok   string
	score float64
}

// topPositiveTokens ranks vocabulary by log-likelihood ratio toward the
// positive class.
func (nb *binaryNB) topPositiveTokens(n int) []string {
	all := make([]scoredToken, 0, len(nb.vocab))
	for idx, tok := range nb.vocab {
		all = append(all, scoredToken{tok, nb.logPos[idx] - nb.logNeg[idx]})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].tok < all[j].tok
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].tok
	}
	return out
}
