// Package obs is the zero-dependency telemetry layer of the SSTD
// reproduction: a metrics Registry (counters, gauges, fixed-bucket
// histograms), a lightweight span Tracer with parent/child linkage and
// Chrome trace_event export, and a control-loop Recorder that captures
// every PID tick of the paper's §IV-C feedback system.
//
// Everything is concurrency-safe and nil-safe: a nil *Registry hands out
// nil metric handles whose methods no-op, so library code can instrument
// unconditionally and users who leave telemetry off pay only a nil check
// per event. Hot-path increments are single uncontended atomic adds on
// cache-line-padded words.
package obs

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. A nil *Registry is valid everywhere and disables telemetry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op handle) when r is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, r.counters, name, newCounter)
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// when r is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, r.gauges, name, newGauge)
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (an implicit +Inf bucket is appended).
// Bounds must be sorted ascending; nil bounds use DefaultDurationBuckets.
// Returns nil when r is nil.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, r.hists, name, func() *Histogram { return newHistogram(bounds) })
}

// lookup returns m[name], taking r's write lock only to create it.
func lookup[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.RLock()
	v, ok := m[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return lookupLocked(m, name, mk)
}

// lookupLocked returns m[name], creating it with mk. Callers hold r.mu.
func lookupLocked[T any](m map[string]*T, name string, mk func() *T) *T {
	v, ok := m[name]
	if !ok {
		v = mk()
		m[name] = v
	}
	return v
}

func newCounter() *Counter { return &Counter{} }
func newGauge() *Gauge     { return &Gauge{} }

// Fold applies a ship — cur, a remote registry's cumulative snapshot,
// whose previous ship was prev (zero on the first) — to r, each series
// under its own name with key="value" added to its labels. Counters and
// histograms add their growth since prev; a value below prev's is a
// reset (a fresh registry under the same name), so all of it is growth,
// as Prometheus treats a counter that goes down. Gauges take cur's value.
// A histogram whose bucket layout differs from the one r holds under its
// name is skipped, so a remote running other bounds cannot corrupt it.
// The fold holds r's write lock, so Snapshot sees a ship whole or not at
// all.
func (r *Registry) Fold(prev, cur RegistrySnapshot, key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, v := range cur.Counters {
		if old := prev.Counters[name]; v >= old {
			v -= old
		}
		lookupLocked(r.counters, withLabel(name, key, value), newCounter).Add(max(v, 0))
	}
	for name, v := range cur.Gauges {
		lookupLocked(r.gauges, withLabel(name, key, value), newGauge).Set(v)
	}
	for name, s := range cur.Histograms {
		h := lookupLocked(r.hists, withLabel(name, key, value), func() *Histogram { return newHistogram(s.Bounds) })
		h.fold(prev.Histograms[name], s)
	}
}

// withLabel adds key="value" to a metric name's label block.
func withLabel(name, key, value string) string {
	label := Label("", key, value)
	if base, ok := strings.CutSuffix(name, "}"); ok {
		return base + "," + label[1:]
	}
	return name + label
}

// Counter is a monotonically increasing count. The padding keeps two
// independently allocated hot counters off the same cache line so
// parallel increments of different counters never false-share.
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value (stored as IEEE-754 bits in one
// atomic word).
type Gauge struct {
	bits atomic.Uint64
	_    [56]byte
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int) { g.Set(float64(v)) }

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Observations and
// reads may race freely; every count lands in exactly one bucket.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; bucket i counts v <= bounds[i]
	counts  []atomic.Int64
	total   atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
}

// newHistogram makes a histogram with the given bounds, or with
// DefaultDurationBuckets when bounds is nil.
func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultDurationBuckets()
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1), // last bucket is +Inf
	}
}

// DefaultDurationBuckets are exponential millisecond latency buckets
// spanning 50µs to 10s.
func DefaultDurationBuckets() []float64 {
	return []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	h.addSum(v)
}

// addSum adds v to the histogram's float64 sum.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in milliseconds (the unit of every
// SSTD latency histogram).
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// fold adds the growth from prev to cur, two cumulative snapshots of a
// remote histogram, to h: per-bucket counts, the total count and the
// sum. A cur whose count is below prev's is a reset: all of it is
// growth. A cur whose bucket layout differs from h's adds nothing.
func (h *Histogram) fold(prev, cur HistogramSnapshot) {
	if cur.Count < prev.Count {
		prev = HistogramSnapshot{}
	}
	if len(cur.Counts) != len(h.counts) || !slices.Equal(cur.Bounds, h.bounds) {
		return
	}
	for i, n := range cur.Counts {
		if i < len(prev.Counts) {
			n -= prev.Counts[i]
		}
		if n > 0 {
			h.counts[i].Add(n)
			h.total.Add(n)
		}
	}
	if ds := cur.Sum - prev.Sum; ds > 0 {
		h.addSum(ds)
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket holding the target rank. Samples in the overflow
// bucket are attributed to the highest finite bound. Returns 0 with no
// observations or no bounds — a snapshot decoded off the wire may have
// neither.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	for i, n := range s.Counts {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(s.Bounds) { // overflow bucket
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return s.Bounds[len(s.Bounds)-1]
}

// HistogramSnapshot is a consistent-enough read of a histogram.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	// Sum is in the histogram's native unit (ms for latency histograms).
	Sum float64 `json:"sum"`
	// Bounds are the finite bucket upper bounds; Counts has one extra
	// trailing element for the +Inf overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P99    float64   `json:"p99"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count:  h.Count(),
		Sum:    h.Sum(),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.FillQuantiles()
	return s
}

// FillQuantiles derives P50/P90/P99 from the bucket counts — for a
// snapshot rebuilt from its buckets, such as one decoded off the wire.
func (s *HistogramSnapshot) FillQuantiles() {
	s.P50, s.P90, s.P99 = s.Quantile(0.5), s.Quantile(0.9), s.Quantile(0.99)
}

// RegistrySnapshot is a point-in-time copy of every metric, the payload
// of the JSON /metrics format.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry: counters, then gauges, then histograms.
// Safe on nil (returns empty maps).
func (r *Registry) Snapshot() RegistrySnapshot {
	s := RegistrySnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}
