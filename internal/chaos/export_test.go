package chaos

import "sort"

// InjectedCount reports the total number of injected faults, including
// any beyond the event retention cap.
func (in *Injector) InjectedCount() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.events) + in.dropped
}

// FrameFault returns the transport fault for frame index on stream
// ("" = none).
func (in *Injector) FrameFault(stream string, index uint64) string {
	f, _ := in.decide(transportFaults, stream, index)
	return f
}

// ExecFault returns the exec fault for task index on stream ("" = none).
func (in *Injector) ExecFault(stream string, index uint64) string {
	f, _ := in.decide(execFaults, stream, index)
	return f
}

// Plan materializes the first n frame decisions for a stream — the
// reproducibility contract in executable form: equal specs yield equal
// plans.
func (in *Injector) Plan(stream string, n uint64) []string {
	out := make([]string, n)
	for i := uint64(0); i < n; i++ {
		out[i] = in.FrameFault(stream, i)
	}
	return out
}

// Events snapshots the injected-fault log (capped at eventRetention),
// sorted by stream then index so concurrent append order does not leak
// into assertions.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	out := make([]Event, len(in.events))
	copy(out, in.events)
	in.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stream != out[j].Stream {
			return out[i].Stream < out[j].Stream
		}
		return out[i].Index < out[j].Index
	})
	return out
}
