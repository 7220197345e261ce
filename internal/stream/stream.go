// Package stream turns a static trace into the data streams the paper's
// streaming experiments consume: fixed-width interval batches (for
// interval-by-interval truth discovery), fixed-rate streams (for the
// streaming-speed experiment of Fig. 5) and prefixes (for the data-size
// sweep of Fig. 4).
package stream

import (
	"errors"
	"time"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

// Batch is the reports that arrived in one time interval.
type Batch struct {
	Start   time.Time
	Reports []socialsensing.Report
}

// SplitByInterval buckets a trace's reports into consecutive intervals of
// the given width, starting at the trace start. Every interval in the
// trace's span is represented, including empty ones, so downstream
// estimators see quiet periods.
func SplitByInterval(tr *socialsensing.Trace, width time.Duration) ([]Batch, error) {
	if width <= 0 {
		return nil, errors.New("stream: interval width must be positive")
	}
	n := int(tr.Duration()/width) + 1
	batches := make([]Batch, n)
	for i := range batches {
		batches[i].Start = tr.Start.Add(time.Duration(i) * width)
	}
	for _, r := range tr.Reports {
		idx := 0
		if r.Timestamp.After(tr.Start) {
			idx = int(r.Timestamp.Sub(tr.Start) / width)
		}
		if idx >= n {
			idx = n - 1
		}
		batches[idx].Reports = append(batches[idx].Reports, r)
	}
	return batches, nil
}

// SplitN divides a trace into exactly n equal time intervals (the paper's
// Fig. 6 divides each trace into 100 intervals).
func SplitN(tr *socialsensing.Trace, n int) ([]Batch, error) {
	if n < 1 {
		return nil, errors.New("stream: need at least one interval")
	}
	width := tr.Duration() / time.Duration(n)
	if width <= 0 {
		width = time.Nanosecond
	}
	batches, err := SplitByInterval(tr, width)
	if err != nil {
		return nil, err
	}
	if len(batches) > n {
		// Fold any trailing remainder into the last interval.
		last := batches[n-1]
		for _, b := range batches[n:] {
			last.Reports = append(last.Reports, b.Reports...)
		}
		batches = batches[:n]
		batches[n-1] = last
	}
	return batches, nil
}

// RateStream synthesizes a fixed-rate stream from a trace: the first
// duration*rate reports are re-timestamped to arrive uniformly at rate
// reports-per-second over the given duration. This is the Fig. 5 workload:
// "stream the data into compared schemes at different speeds for a
// duration of 100 seconds". The trace must contain enough reports.
func RateStream(tr *socialsensing.Trace, rate int, duration time.Duration) ([]Batch, error) {
	if rate < 1 {
		return nil, errors.New("stream: rate must be >= 1")
	}
	if duration <= 0 {
		return nil, errors.New("stream: duration must be positive")
	}
	seconds := int(duration / time.Second)
	if seconds < 1 {
		seconds = 1
	}
	need := rate * seconds
	if len(tr.Reports) < need {
		return nil, errors.New("stream: trace too small for requested rate")
	}
	batches := make([]Batch, seconds)
	k := 0
	for s := 0; s < seconds; s++ {
		start := tr.Start.Add(time.Duration(s) * time.Second)
		batch := Batch{Start: start, Reports: make([]socialsensing.Report, rate)}
		for i := 0; i < rate; i++ {
			r := tr.Reports[k]
			r.Timestamp = start.Add(time.Duration(i) * time.Second / time.Duration(rate))
			batch.Reports[i] = r
			k++
		}
		batches[s] = batch
	}
	return batches, nil
}

// Prefix returns a shallow copy of the trace truncated to its first n
// reports (the Fig. 4 data-size sweep). Sources and claims are preserved.
func Prefix(tr *socialsensing.Trace, n int) *socialsensing.Trace {
	if n > len(tr.Reports) {
		n = len(tr.Reports)
	}
	out := *tr
	out.Reports = tr.Reports[:n]
	return &out
}
