// Package evalmetrics computes the evaluation measures of the paper's §V:
// truth discovery effectiveness (accuracy, precision, recall, F1 against
// labelled ground truth, evaluated per time interval for dynamic claims),
// efficiency (execution time) and controllability (deadline hit rate).
package evalmetrics

import (
	"errors"
	"time"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

// Confusion is a binary confusion matrix; "positive" is a True claim.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add accumulates another matrix.
func (c *Confusion) Add(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.TN += o.TN
	c.FN += o.FN
}

// Observe records one (estimate, truth) pair.
func (c *Confusion) Observe(estimate, truth socialsensing.TruthValue) {
	switch {
	case estimate == socialsensing.True && truth == socialsensing.True:
		c.TP++
	case estimate == socialsensing.True && truth == socialsensing.False:
		c.FP++
	case estimate == socialsensing.False && truth == socialsensing.False:
		c.TN++
	default:
		c.FN++
	}
}

// Total returns the number of observations.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy is (TP+TN)/total; 0 when empty.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// Precision is TP/(TP+FP); 0 when no positive predictions.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP/(TP+FN); 0 when no positive labels.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Report bundles the four effectiveness metrics for result tables.
type Report struct {
	Method    string
	Accuracy  float64
	Precision float64
	Recall    float64
	F1        float64
}

// ReportOf derives a Report from a confusion matrix.
func ReportOf(method string, c Confusion) Report {
	return Report{
		Method:    method,
		Accuracy:  c.Accuracy(),
		Precision: c.Precision(),
		Recall:    c.Recall(),
		F1:        c.F1(),
	}
}

// TruthFunc evaluates an estimator's decoded truth for a claim at a time;
// ok=false means the estimator offers no verdict there (excluded from
// scoring).
type TruthFunc func(claim socialsensing.ClaimID, t time.Time) (socialsensing.TruthValue, bool)

// EvaluateDynamic scores an estimator against a trace's evolving ground
// truth by sampling every claim at every interval of the given width
// across the span in which the claim has reports (the dynamic-truth
// evaluation the paper uses). It returns the pooled confusion matrix.
func EvaluateDynamic(tr *socialsensing.Trace, estimate TruthFunc, width time.Duration) (Confusion, error) {
	_, total, err := EvaluateDynamicPerClaim(tr, estimate, width)
	return total, err
}

// EvaluateDynamicPerClaim is EvaluateDynamic with a per-claim breakdown:
// it returns one confusion matrix per claim plus the pooled total —
// useful for spotting which claims an estimator fails on. Scoring is
// restricted to intervals where the claim is actually observed (first to
// last report), matching how labelled evaluations work.
func EvaluateDynamicPerClaim(tr *socialsensing.Trace, estimate TruthFunc, width time.Duration) (map[socialsensing.ClaimID]Confusion, Confusion, error) {
	if width <= 0 {
		return nil, Confusion{}, errors.New("evalmetrics: width must be positive")
	}
	span := make(map[socialsensing.ClaimID][2]time.Time, len(tr.Claims))
	for _, r := range tr.Reports {
		s, ok := span[r.Claim]
		if !ok {
			span[r.Claim] = [2]time.Time{r.Timestamp, r.Timestamp}
			continue
		}
		if r.Timestamp.Before(s[0]) {
			s[0] = r.Timestamp
		}
		if r.Timestamp.After(s[1]) {
			s[1] = r.Timestamp
		}
		span[r.Claim] = s
	}
	perClaim := make(map[socialsensing.ClaimID]Confusion, len(span))
	var total Confusion
	for claim, s := range span {
		var conf Confusion
		for t := s[0]; !t.After(s[1]); t = t.Add(width) {
			truth, ok := tr.TruthAt(claim, t)
			if !ok {
				continue
			}
			est, ok := estimate(claim, t)
			if !ok {
				continue
			}
			conf.Observe(est, truth)
		}
		perClaim[claim] = conf
		total.Add(conf)
	}
	return perClaim, total, nil
}

// SpeedupSeries is one curve of Fig. 7: speedup per worker count.
type SpeedupSeries struct {
	DataSize int
	Workers  []int
	Speedup  []float64
}
