// Package tsdb is the master-side retained time-series store of the
// cluster telemetry plane: fixed-capacity per-series point rings keyed by
// metric name + label set, fed by snapshots of the master's registry —
// which holds each worker's shipped series under its worker label — and
// queryable through the /query debug endpoint (and `sstdctl query`).
//
// Retention is bounded by construction — capacity points per series, so
// memory is O(series × capacity) regardless of uptime. Series identity
// follows the repo's label convention: a metric name may carry a
// `{k="v",...}` block.
package tsdb

import (
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
)

// Point is one retained sample. T is unix milliseconds — coarse enough
// to be compact in JSON, fine enough for heartbeat-cadence telemetry.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// Series is one named, labelled time series as returned by Query.
type Series struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Points []Point           `json:"points"`
}

// DefaultCapacity is the per-series ring size when New is given n <= 0:
// at a 1s scrape cadence roughly 8.5 minutes of history per series.
const DefaultCapacity = 512

// Store retains bounded history for many series. Safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	cap    int
	series map[string]*ring // canonical key -> ring
}

type ring struct {
	name   string
	labels map[string]string
	pts    obs.Ring[Point]
}

// New creates a store retaining capacity points per series
// (DefaultCapacity when <= 0).
func New(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		cap:    capacity,
		series: make(map[string]*ring),
	}
}

func (s *Store) append(base string, labels map[string]string, tms int64, v float64) {
	key := seriesKey(base, labels)
	s.mu.Lock()
	r, ok := s.series[key]
	if !ok {
		r = &ring{name: base, labels: labels, pts: obs.NewRing[Point](s.cap)}
		s.series[key] = r
	}
	r.pts.Push(Point{T: tms, V: v})
	s.mu.Unlock()
}

// Ingest samples one registry snapshot into the store, one point per
// series: the master's registry on its scrape tick. Histograms expand to
// _count, _sum and _p50/_p90/_p99 series. Nil-safe.
func (s *Store) Ingest(snap obs.RegistrySnapshot, now time.Time) {
	if s == nil {
		return
	}
	tms := now.UnixMilli()
	for name, v := range snap.Counters {
		base, labels := splitName(name)
		s.append(base, labels, tms, float64(v))
	}
	for name, v := range snap.Gauges {
		base, labels := splitName(name)
		s.append(base, labels, tms, v)
	}
	for name, h := range snap.Histograms {
		base, labels := splitName(name)
		s.append(base+"_count", labels, tms, float64(h.Count))
		s.append(base+"_sum", labels, tms, h.Sum)
		s.append(base+"_p50", labels, tms, h.P50)
		s.append(base+"_p90", labels, tms, h.P90)
		s.append(base+"_p99", labels, tms, h.P99)
	}
}

// Query selects retained series.
type Query struct {
	// Name is the exact series base name ("" matches every series).
	Name string
	// Matchers are label equality constraints; every pair must match.
	Matchers map[string]string
	// Since drops points older than now-Since (0 = all retained).
	Since time.Duration
	// Step downsamples to the last point per step bucket (0 = raw).
	Step time.Duration
	// Limit caps points per series, keeping the newest (<= 0 = DefaultQueryLimit).
	Limit int
}

// DefaultQueryLimit and MaxQueryLimit bound points per series in query
// results so a /query response can never be unbounded.
const (
	DefaultQueryLimit = 500
	MaxQueryLimit     = 5000
)

// Run executes the query against the store at time now. Results are
// sorted by name then label signature; points are oldest first.
func (s *Store) Run(q Query, now time.Time) []Series {
	if s == nil {
		return nil
	}
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultQueryLimit
	}
	if limit > MaxQueryLimit {
		limit = MaxQueryLimit
	}
	var cutoff int64
	if q.Since > 0 {
		cutoff = now.Add(-q.Since).UnixMilli()
	}
	s.mu.RLock()
	keys := make([]string, 0, len(s.series))
	for key, r := range s.series {
		if q.Name != "" && r.name != q.Name {
			continue
		}
		match := true
		for k, v := range q.Matchers {
			if r.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	out := make([]Series, 0, len(keys))
	for _, key := range keys {
		r := s.series[key]
		// A copy, so downsampling can compact it in place.
		pts := r.pts.Ordered()
		if cutoff > 0 {
			i := sort.Search(len(pts), func(i int) bool { return pts[i].T >= cutoff })
			pts = pts[i:]
		}
		if q.Step > 0 {
			pts = downsample(pts, q.Step.Milliseconds())
		}
		if len(pts) > limit {
			pts = pts[len(pts)-limit:]
		}
		labels := make(map[string]string, len(r.labels))
		for k, v := range r.labels {
			labels[k] = v
		}
		out = append(out, Series{Name: r.name, Labels: labels, Points: append([]Point(nil), pts...)})
	}
	s.mu.RUnlock()
	return out
}

// SeriesNames returns the distinct base names retained, sorted.
func (s *Store) SeriesNames() []string {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	set := make(map[string]struct{})
	for _, r := range s.series {
		set[r.name] = struct{}{}
	}
	s.mu.RUnlock()
	return obs.SortedKeys(set)
}

// downsample keeps the last point of each stepMs-wide time bucket.
func downsample(pts []Point, stepMs int64) []Point {
	if stepMs <= 0 || len(pts) == 0 {
		return pts
	}
	out := pts[:0:len(pts)]
	for i, p := range pts {
		if i+1 < len(pts) && pts[i+1].T/stepMs == p.T/stepMs {
			continue
		}
		out = append(out, p)
	}
	return out
}

// splitName separates a `base{k="v",...}` metric name into base and
// parsed labels (nil when unlabelled).
func splitName(name string) (string, map[string]string) {
	base, block, _ := strings.Cut(name, "{")
	var labels map[string]string
	obs.ParseLabels(strings.TrimSuffix(block, "}"), func(k, v string) {
		if labels == nil {
			labels = make(map[string]string)
		}
		labels[k] = v
	})
	return base, labels
}

func seriesKey(base string, labels map[string]string) string {
	if len(labels) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	for _, k := range obs.SortedKeys(labels) {
		b.WriteByte('\x00')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}
