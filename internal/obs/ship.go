package obs

import (
	"maps"
	"sync"
)

// TelemetryShip is a delta-encoded snapshot of a Registry, sized to
// piggyback on the heartbeat cadence: counters travel as increments since
// the previous ship, histograms as per-bucket count deltas, and gauges as
// last-value (only when changed). The first ship from a Shipper — and any
// ship after an encoder reset — carries Full=true with absolute values so
// a receiver can resynchronize after a reconnect without negotiating.
type TelemetryShip struct {
	// Seq increments per ship from one Shipper; a receiver seeing a gap
	// knows intermediate deltas were lost and only Full ships resync it.
	Seq  int64 `json:"seq"`
	Full bool  `json:"full,omitempty"`
	// Counters holds per-counter increments (absolute values when Full).
	// Zero deltas are omitted.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges holds last-value samples for gauges that changed since the
	// previous ship (all gauges when Full).
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Hists holds histogram growth since the previous ship. Unchanged
	// histograms are omitted.
	Hists map[string]HistogramDelta `json:"hists,omitempty"`
}

// HistogramDelta is the growth of one cumulative histogram between two
// ships. Bounds are present only when Full or when the bucket layout
// changed (a receiver must then reset its cumulative state for the
// series); Counts always includes the trailing +Inf bucket.
type HistogramDelta struct {
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Empty reports whether the ship carries no samples at all.
func (t *TelemetryShip) Empty() bool {
	return t == nil || (len(t.Counters) == 0 && len(t.Gauges) == 0 && len(t.Hists) == 0)
}

// Shipper diff-encodes successive snapshots of one registry. Safe for
// concurrent use; a nil *Shipper ships nothing.
type Shipper struct {
	mu   sync.Mutex
	reg  *Registry
	seq  int64
	prev RegistrySnapshot
	sent bool
}

// NewShipper creates a delta encoder over reg. Returns nil when reg is
// nil, which every method tolerates.
func NewShipper(reg *Registry) *Shipper {
	if reg == nil {
		return nil
	}
	return &Shipper{reg: reg}
}

// Ship snapshots the registry and encodes the change since the previous
// call. The first call returns a Full ship with absolute values. Returns
// nil on a nil receiver; otherwise always returns a ship (possibly with
// no samples) so the sequence number advances with the cadence.
func (s *Shipper) Ship() *TelemetryShip {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.reg.Snapshot()
	s.seq++
	t := &TelemetryShip{Seq: s.seq, Full: !s.sent}
	if t.Full {
		t.Counters = cur.Counters
		t.Gauges = cur.Gauges
		t.Hists = make(map[string]HistogramDelta, len(cur.Histograms))
		for name, h := range cur.Histograms {
			t.Hists[name] = HistogramDelta{Bounds: h.Bounds, Counts: h.Counts, Count: h.Count, Sum: h.Sum}
		}
		s.prev, s.sent = cur, true
		return t
	}
	for name, v := range cur.Counters {
		if d := v - s.prev.Counters[name]; d != 0 {
			if t.Counters == nil {
				t.Counters = make(map[string]int64)
			}
			t.Counters[name] = d
		}
	}
	for name, v := range cur.Gauges {
		if pv, ok := s.prev.Gauges[name]; !ok || pv != v {
			if t.Gauges == nil {
				t.Gauges = make(map[string]float64)
			}
			t.Gauges[name] = v
		}
	}
	for name, h := range cur.Histograms {
		prev, known := s.prev.Histograms[name]
		if known && !sameBounds(prev.Bounds, h.Bounds) {
			known = false // layout changed: resend as absolute
		}
		if known && h.Count == prev.Count && h.Sum == prev.Sum {
			continue
		}
		d := HistogramDelta{Counts: make([]int64, len(h.Counts))}
		if !known {
			d.Bounds = h.Bounds
			copy(d.Counts, h.Counts)
			d.Count, d.Sum = h.Count, h.Sum
		} else {
			for i := range h.Counts {
				d.Counts[i] = h.Counts[i] - prev.Counts[i]
			}
			d.Count = h.Count - prev.Count
			d.Sum = h.Sum - prev.Sum
		}
		if t.Hists == nil {
			t.Hists = make(map[string]HistogramDelta)
		}
		t.Hists[name] = d
	}
	s.prev = cur
	return t
}

// ShipReceiver is the receive half of a Shipper: it folds one sender's
// successive ships back into that sender's cumulative registry snapshot.
// Not safe for concurrent use; the zero value is ready.
type ShipReceiver struct {
	cur RegistrySnapshot
}

// Receive applies t and returns the sender's cumulative snapshot, with
// histogram quantiles recomputed from the accumulated buckets. A Full
// ship (the sender's first, or its first after a reconnect) replaces the
// state; a delta ship without prior state applies onto zero, the best
// available. Histogram deltas whose layout no longer matches are dropped
// until the sender resends bounds. The returned maps are fresh on every
// call, so callers may keep them.
func (r *ShipReceiver) Receive(t *TelemetryShip) RegistrySnapshot {
	prev := r.cur
	if t.Full {
		prev = RegistrySnapshot{}
	}
	cur := RegistrySnapshot{
		Counters:   make(map[string]int64, len(prev.Counters)+len(t.Counters)),
		Gauges:     make(map[string]float64, len(prev.Gauges)+len(t.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(prev.Histograms)+len(t.Hists)),
	}
	maps.Copy(cur.Counters, prev.Counters)
	for name, d := range t.Counters {
		cur.Counters[name] += d
	}
	maps.Copy(cur.Gauges, prev.Gauges)
	maps.Copy(cur.Gauges, t.Gauges)
	maps.Copy(cur.Histograms, prev.Histograms)
	for name, d := range t.Hists {
		h, known := cur.Histograms[name]
		switch {
		case !known || len(d.Bounds) > 0:
			// First sight or a layout change: the delta carries absolute
			// counts and authoritative bounds.
			h = HistogramSnapshot{Bounds: d.Bounds, Counts: append([]int64(nil), d.Counts...), Count: d.Count, Sum: d.Sum}
		case len(h.Counts) == len(d.Counts):
			counts := make([]int64, len(d.Counts))
			for i, c := range d.Counts {
				counts[i] = h.Counts[i] + c
			}
			h.Counts, h.Count, h.Sum = counts, h.Count+d.Count, h.Sum+d.Sum
		default:
			continue
		}
		h.fillQuantiles()
		cur.Histograms[name] = h
	}
	r.cur = cur
	return cur
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
