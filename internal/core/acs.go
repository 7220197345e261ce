// Package core implements the paper's primary contribution: the Scalable
// Streaming Truth Discovery (SSTD) scheme of §III. Reports are aggregated
// into per-claim Aggregated Contribution Score (ACS) sequences over a
// sliding window (Eq. 4); a per-claim Hidden Markov Model is fit by
// Baum-Welch (Eq. 5) and the evolving truth is decoded with Viterbi
// (Eq. 6-8).
package core

import (
	"fmt"
	"math"
	"time"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

// ACSConfig controls how the ACS observation sequence is derived from raw
// reports.
type ACSConfig struct {
	// Interval is the width of one HMM time step. Reports are bucketed
	// into consecutive intervals starting at the stream origin.
	Interval time.Duration
	// WindowIntervals is the sliding window length sw of Eq. 4, in
	// intervals: ACS at step t sums contribution scores over steps
	// (t-sw, t]. Its size should track the expected truth change
	// frequency of the observed event.
	WindowIntervals int
}

// DefaultACSConfig matches a minute-level emergency trace: 1-minute steps
// with a 5-minute sliding window.
func DefaultACSConfig() ACSConfig {
	return ACSConfig{Interval: time.Minute, WindowIntervals: 5}
}

func (c ACSConfig) validate() error {
	if c.Interval <= 0 {
		return fmt.Errorf("core: ACS interval must be positive, got %v", c.Interval)
	}
	if c.WindowIntervals < 1 {
		return fmt.Errorf("core: ACS window must be >= 1 interval, got %d", c.WindowIntervals)
	}
	return nil
}

// ACSAccumulator builds the ACS sequence for one claim incrementally. It
// keeps only per-interval sums, so memory is O(#intervals), independent of
// report volume.
type ACSAccumulator struct {
	cfg   ACSConfig
	grid  Grid
	sums  []float64 // per-interval contribution score totals
	count int       // reports ingested
}

// NewACSAccumulator creates an accumulator whose interval grid starts at
// origin.
func NewACSAccumulator(cfg ACSConfig, origin time.Time) (*ACSAccumulator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &ACSAccumulator{cfg: cfg, grid: NewGrid(origin, cfg.Interval)}, nil
}

// Add ingests one report. Reports earlier than the origin are clamped into
// the first interval.
func (a *ACSAccumulator) Add(r socialsensing.Report) {
	idx := a.grid.Index(r.Timestamp)
	for len(a.sums) <= idx {
		a.sums = append(a.sums, 0)
	}
	a.sums[idx] += r.ContributionScore()
	a.count++
}

// Grid is the ACS interval grid: slot k holds the reports of
// [origin+k·interval, origin+(k+1)·interval).
type Grid struct {
	origin    time.Time
	interval  time.Duration
	sec, nsec int64 // the origin's Unix time
	mono      bool  // the origin carries a monotonic clock reading
}

// NewGrid returns the grid of interval-wide slots from origin; interval
// must be positive. Round(0) strips a monotonic reading and nothing else.
func NewGrid(origin time.Time, interval time.Duration) Grid {
	return Grid{origin, interval, origin.Unix(), int64(origin.Nanosecond()), origin != origin.Round(0)}
}

// Index is the slot of t: t.Sub(origin)/interval for t after the origin
// and 0 for anything else, Sub's saturation at ±292 years included. Up to
// 9e9 s (≈285 years) apart, Sub's wall-clock arithmetic cannot overflow,
// so Index does it without Sub's overflow check; a longer gap, or an origin
// with a monotonic reading (Sub then compares monotonic clocks), takes Sub.
func (g *Grid) Index(t time.Time) int {
	s := t.Unix() - g.sec
	d := time.Duration(s)*time.Second + time.Duration(int64(t.Nanosecond())-g.nsec)
	if s < -9e9 || s > 9e9 || g.mono {
		d = t.Sub(g.origin)
	}
	return int(max(d, 0) / g.interval)
}

// GridCursor walks timestamps that mostly arrive in order. It remembers
// the slot it last sought and the Unix seconds wholly inside that slot, so
// its caller asks Index only for a timestamp outside them: Holds is one
// compare pair, small enough to inline, where Index pays a 64-bit
// division.
type GridCursor struct {
	g      *Grid
	sec    int64
	lo, hi int64 // the seconds [lo, hi) from the origin's lie in slot
	slot   int
}

// Cursor returns a cursor over g that holds no timestamp yet.
func (g *Grid) Cursor() GridCursor { return GridCursor{g: g, sec: g.sec} }

// Holds reports whether t lies in Slot: Index(t) == Slot() when it does.
func (c *GridCursor) Holds(t time.Time) bool {
	s := t.Unix() - c.sec
	return s >= c.lo && s < c.hi
}

// Slot is the slot of the timestamp last sought.
func (c *GridCursor) Slot() int { return c.slot }

// Seek returns Index(t) and makes it the cursor's slot.
func (c *GridCursor) Seek(t time.Time) int {
	g := c.g
	c.slot, c.lo, c.hi = g.Index(t), 0, 0
	if s := t.Unix() - c.sec; g.mono || s < -9e9 || s > 9e9 {
		return c.slot // Index took Sub: wall seconds do not tell its slot
	}
	// Second s from the origin's spans the offsets [s·1e9 − nsec,
	// (s+1)·1e9 − nsec), which Index computes without Sub for |s| ≤ 9e9.
	// Keep the seconds whose offsets all lie in the slot: [k·iv, (k+1)·iv),
	// and everything before the origin too for k = 0.
	c.lo, c.hi = -9e9, 9e9+1
	lo, iv := int64(c.slot)*int64(g.interval), int64(g.interval)
	if c.slot > 0 {
		c.lo = (lo + g.nsec + 1e9 - 1) / 1e9
	}
	if hi := lo + iv; hi > lo && hi <= math.MaxInt64-1e9 {
		c.hi = min(c.hi, (hi+g.nsec)/1e9)
	}
	return c.slot
}

// Len returns the number of intervals currently covered.
func (a *ACSAccumulator) Len() int { return len(a.sums) }

// Count returns the number of reports ingested.
func (a *ACSAccumulator) Count() int { return a.count }

// Series materializes the ACS sequence: for each interval t the sum of
// contribution scores over the trailing sliding window (Eq. 4). The
// sequence has Len() entries; an empty accumulator yields nil.
func (a *ACSAccumulator) Series() []float64 {
	if len(a.sums) == 0 {
		return nil
	}
	out := make([]float64, len(a.sums))
	window := 0.0
	for t := range a.sums {
		window += a.sums[t]
		if t >= a.cfg.WindowIntervals {
			window -= a.sums[t-a.cfg.WindowIntervals]
		}
		out[t] = window
	}
	return out
}

// SeriesInto is Series writing into dst, growing it only when capacity is
// insufficient — the allocation-free variant the engine's steady-state
// decode path uses.
func (a *ACSAccumulator) SeriesInto(dst []float64) []float64 {
	if cap(dst) < len(a.sums) {
		dst = make([]float64, len(a.sums))
	} else {
		dst = dst[:len(a.sums)]
	}
	window := 0.0
	for t := range a.sums {
		window += a.sums[t]
		if t >= a.cfg.WindowIntervals {
			window -= a.sums[t-a.cfg.WindowIntervals]
		}
		dst[t] = window
	}
	return dst
}

// IntervalStart returns the wall-clock start of interval t.
func (a *ACSAccumulator) IntervalStart(t int) time.Time {
	return a.grid.origin.Add(time.Duration(t) * a.grid.interval)
}

// Discretizer quantizes continuous ACS values into the symbol alphabet of
// the discrete HMM. Bins are defined by ascending edge values: a value v
// maps to the index of the first edge >= v (and to len(edges) when v is
// beyond the last edge).
type Discretizer struct {
	edges []float64
}

// NewDiscretizer builds a discretizer from strictly ascending edges.
func NewDiscretizer(edges []float64) (*Discretizer, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("core: discretizer needs at least one edge")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			return nil, fmt.Errorf("core: discretizer edges not ascending at %d: %v", i, edges)
		}
	}
	return &Discretizer{edges: append([]float64(nil), edges...)}, nil
}

// NewSymmetricDiscretizer builds 2k+1 bins symmetric around zero with the
// given positive thresholds, e.g. thresholds (0.5, 2) yield bins
// (-inf,-2], (-2,-0.5], (-0.5,0.5], (0.5,2], (2,inf) — strongly-negative
// through strongly-positive evidence.
func NewSymmetricDiscretizer(thresholds ...float64) (*Discretizer, error) {
	if len(thresholds) == 0 {
		return nil, fmt.Errorf("core: need at least one threshold")
	}
	edges := make([]float64, 0, 2*len(thresholds))
	for i := len(thresholds) - 1; i >= 0; i-- {
		if thresholds[i] <= 0 {
			return nil, fmt.Errorf("core: thresholds must be positive, got %v", thresholds[i])
		}
		edges = append(edges, -thresholds[i])
	}
	for _, th := range thresholds {
		edges = append(edges, th)
	}
	return NewDiscretizer(edges)
}

// Symbols returns the alphabet size (number of bins).
func (d *Discretizer) Symbols() int { return len(d.edges) + 1 }

// Quantize maps a single value to its bin.
func (d *Discretizer) Quantize(v float64) int {
	for i, e := range d.edges {
		if v <= e {
			return i
		}
	}
	return len(d.edges)
}

// QuantizeAll maps a sequence.
func (d *Discretizer) QuantizeAll(vs []float64) []int {
	return d.QuantizeAllInto(vs, nil)
}

// QuantizeAllInto maps a sequence into dst, growing it only when capacity
// is insufficient.
func (d *Discretizer) QuantizeAllInto(vs []float64, dst []int) []int {
	if cap(dst) < len(vs) {
		dst = make([]int, len(vs))
	} else {
		dst = dst[:len(vs)]
	}
	for i, v := range vs {
		dst[i] = d.Quantize(v)
	}
	return dst
}
