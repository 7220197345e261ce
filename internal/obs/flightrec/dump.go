package flightrec

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
)

// Event is one decoded probe record, as exported by snapshots and deep
// dives.
type Event = obs.ProbeEvent

// Events snapshots every ring, returning the events whose end falls
// within the trailing window (entire history when window <= 0), oldest
// first. Torn or overwritten records — a writer lapped the ring while
// we read — are dropped by sanity checks rather than locked out: probes
// never block.
func (r *Recorder) Events(window time.Duration) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	rings := make([]*Ring, len(r.rings))
	copy(rings, r.rings)
	r.mu.Unlock()

	cutoff := int64(0)
	if window > 0 {
		cutoff = time.Now().Add(-window).UnixNano()
	}
	var out []Event
	for _, g := range rings {
		end := g.cur.Load()
		n := uint64(len(g.recs))
		start := uint64(0)
		if end > n {
			start = end - n
		}
		for pos := start; pos < end; pos++ {
			rec := &g.recs[pos&g.mask]
			p := rec.probe.Load()
			t0, t1 := rec.t0.Load(), rec.t1.Load()
			if p <= 0 || int64(p) > int64(numProbes) || t1 < t0 || t1 < cutoff {
				continue
			}
			out = append(out, Event{
				Ring:   g.name,
				Probe:  ProbeID(p - 1).Name(),
				T0:     t0,
				T1:     t1,
				Arg:    rec.arg.Load(),
				Parent: rec.parent.Load(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T0 < out[j].T0 })
	return out
}

// WriteDeepDive writes the deep-dive Chrome trace: the tracer's buffered
// spans plus the last window of this recorder's probe events — a cluster
// trace whose only host is the local one (see obs.WriteChromeTrace).
func (r *Recorder) WriteDeepDive(w io.Writer, window time.Duration) error {
	if r == nil {
		return fmt.Errorf("flightrec: no recorder")
	}
	return obs.WriteChromeTrace(w, r.tracer.Spans(), []obs.HostEvents{{Events: r.Events(window)}})
}
