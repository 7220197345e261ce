// Package chaos is a deterministic, seedable fault-injection layer for
// the workqueue cluster. It wraps the transport (net.Conn, one
// length-prefixed wire frame at a time) and the worker exec path to
// inject the failure modes the paper's elastic Work Queue deployment
// (§IV) assumes
// are routine — dropped and corrupted frames, arbitrary delivery delay,
// connection resets, worker crashes and hangs, and clock skew — so that
// requeue, liveness eviction, backoff and quarantine paths are exercised
// systematically instead of hoping the happy path generalizes.
//
// Every decision is a pure function of (seed, fault kind, stream name,
// frame index) via a splitmix64 hash: the fault plan for a given spec is
// fixed before the cluster runs and immune to goroutine interleaving, so
// a failing soak is reproducible from its seed alone. Scripted entries
// override the probabilistic plan for exact frame ranges.
//
// The layer is test-only in spirit: the sstd-master/sstd-worker binaries
// gate it behind a -chaos-spec flag that defaults to off; its seed= entry
// picks the schedule.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
)

// Fault kinds. Transport faults (drop/corrupt/delay/reset/skew) apply
// per wire frame; exec faults (crash/hang/fail) apply per task.
const (
	FaultDrop    = "drop"
	FaultCorrupt = "corrupt"
	FaultDelay   = "delay"
	FaultReset   = "reset"
	FaultSkew    = "skew"
	FaultCrash   = "crash"
	FaultHang    = "hang"
	FaultFail    = "fail"
)

// faultOrder fixes the evaluation order of probabilistic transport
// faults for one frame (at most one fires per frame; reset is checked
// first since it supersedes the rest).
var transportFaults = []string{FaultReset, FaultDrop, FaultCorrupt, FaultDelay}

// execFaults is the per-task evaluation order of exec faults.
var execFaults = []string{FaultCrash, FaultHang, FaultFail}

// ScriptedFault forces one fault over an exact frame (or task) index
// range, overriding the probabilistic plan — the tool for "corrupt
// frames 20..60 of every stream" style schedules.
type ScriptedFault struct {
	// Fault is one of the Fault* constants.
	Fault string
	// Stream restricts the entry to streams containing this substring
	// ("" = all streams).
	Stream string
	// From..To is the half-open frame index range the fault covers.
	From, To uint64
}

// Spec describes one fault schedule. Probabilities are per frame
// (transport) or per task (exec) in [0,1]; zero disables a fault.
type Spec struct {
	// Seed drives every probabilistic decision. Two injectors with equal
	// specs produce identical fault plans.
	Seed int64

	// Transport faults.
	Drop    float64
	Corrupt float64
	Delay   float64
	Reset   float64
	// DelayMin/DelayMax bound the injected delivery delay (defaults
	// 1ms..20ms when Delay > 0).
	DelayMin, DelayMax time.Duration
	// SkewNs shifts every clock stamp (message and task send times,
	// span starts) crossing the wrapped connection, simulating a worker
	// whose clock runs ahead (positive) or behind (negative) of the master's.
	SkewNs int64

	// Exec faults.
	Crash float64
	Hang  float64
	Fail  float64
	// HangFor bounds an injected hang (default 30s — comfortably past
	// any test deadline, short enough not to leak goroutines forever).
	HangFor time.Duration

	// Script entries override the probabilistic plan on exact ranges.
	Script []ScriptedFault
}

// withDefaults fills derived fields.
func (s Spec) withDefaults() Spec {
	if s.DelayMin <= 0 {
		s.DelayMin = time.Millisecond
	}
	if s.DelayMax < s.DelayMin {
		s.DelayMax = 20 * time.Millisecond
	}
	if s.HangFor <= 0 {
		s.HangFor = 30 * time.Second
	}
	return s
}

// ParseSpec parses the -chaos-spec mini-language: comma-separated
// key=value pairs.
//
//	drop=0.3,corrupt=0.05,seed=7          probabilities + seed
//	delay=0.1:1ms-5ms                     10% of frames delayed 1-5ms
//	skew=250ms                            constant clock skew
//	hang=0.02:2s                          2% of tasks hang for 2s
//	script=corrupt@20-60+drop@100-110     scripted frame ranges
//	script=reset@w3:40-41                 scripted, one stream only
//
// An empty string parses to the zero Spec (no faults).
func ParseSpec(text string) (Spec, error) {
	var s Spec
	text = strings.TrimSpace(text)
	if text == "" {
		return s, nil
	}
	for _, kv := range strings.Split(text, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return s, fmt.Errorf("chaos: bad spec entry %q (want key=value)", kv)
		}
		var err error
		switch key {
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
		case FaultDrop:
			s.Drop, err = parseProb(val)
		case FaultCorrupt:
			s.Corrupt, err = parseProb(val)
		case FaultReset:
			s.Reset, err = parseProb(val)
		case FaultDelay:
			prob, rest, _ := strings.Cut(val, ":")
			if s.Delay, err = parseProb(prob); err == nil && rest != "" {
				s.DelayMin, s.DelayMax, err = parseRange(rest)
			}
		case FaultSkew:
			var d time.Duration
			d, err = time.ParseDuration(val)
			s.SkewNs = int64(d)
		case FaultCrash:
			s.Crash, err = parseProb(val)
		case FaultFail:
			s.Fail, err = parseProb(val)
		case FaultHang:
			prob, rest, _ := strings.Cut(val, ":")
			if s.Hang, err = parseProb(prob); err == nil && rest != "" {
				s.HangFor, err = time.ParseDuration(rest)
			}
		case "script":
			s.Script, err = parseScript(val)
		default:
			return s, fmt.Errorf("chaos: unknown spec key %q", key)
		}
		if err != nil {
			return s, fmt.Errorf("chaos: bad value for %s: %w", key, err)
		}
	}
	return s, nil
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}

func parseRange(v string) (min, max time.Duration, err error) {
	lo, hi, ok := strings.Cut(v, "-")
	if !ok {
		return 0, 0, fmt.Errorf("bad duration range %q (want min-max)", v)
	}
	if min, err = time.ParseDuration(lo); err != nil {
		return 0, 0, err
	}
	if max, err = time.ParseDuration(hi); err != nil {
		return 0, 0, err
	}
	return min, max, nil
}

// parseScript parses "+"-joined entries of the form fault@from-to or
// fault@stream:from-to.
func parseScript(v string) ([]ScriptedFault, error) {
	var out []ScriptedFault
	for _, entry := range strings.Split(v, "+") {
		fault, spec, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("bad script entry %q (want fault@from-to)", entry)
		}
		var sf ScriptedFault
		sf.Fault = fault
		if stream, rng, ok := strings.Cut(spec, ":"); ok {
			sf.Stream, spec = stream, rng
		}
		lo, hi, ok := strings.Cut(spec, "-")
		if !ok {
			return nil, fmt.Errorf("bad script range %q (want from-to)", spec)
		}
		from, err := strconv.ParseUint(lo, 10, 64)
		if err != nil {
			return nil, err
		}
		to, err := strconv.ParseUint(hi, 10, 64)
		if err != nil {
			return nil, err
		}
		sf.From, sf.To = from, to
		out = append(out, sf)
	}
	return out, nil
}

// Event records one injected fault, for assertions and reproduction
// reports. Stream and Index identify the decision point exactly; the
// sequence of events per stream is deterministic for a given Spec.
type Event struct {
	Fault  string `json:"fault"`
	Stream string `json:"stream"`
	Index  uint64 `json:"index"`
	// Detail carries fault-specific context (corruption mode, delay).
	Detail string `json:"detail,omitempty"`
}

// Injector owns one fault schedule and the telemetry around it. All
// methods are safe for concurrent use; decisions are pure hashes, so
// concurrency never perturbs the plan.
type Injector struct {
	spec    Spec
	tracer  *obs.Tracer
	mu      sync.Mutex
	counts  map[string]*obs.Counter
	reg     *obs.Registry
	events  []Event
	dropped int // events beyond the retention cap
}

// eventRetention bounds the recorded event log (a soak can inject tens
// of thousands of faults; tests assert on prefixes and totals).
const eventRetention = 4096

// New builds an injector for the spec. Registry and tracer may be nil
// (telemetry off): injected faults are then kept only in its event log.
func New(spec Spec, reg *obs.Registry, tracer *obs.Tracer) *Injector {
	return &Injector{
		spec:   spec.withDefaults(),
		reg:    reg,
		tracer: tracer,
		counts: make(map[string]*obs.Counter),
	}
}

// splitmix64 is the standard finalizer-quality mixer; one pass turns a
// structured key into an effectively random 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashKey mixes (seed, fault, stream, index) into one decision hash.
// FNV-1a folds the strings; splitmix64 whitens the combination.
func (in *Injector) hashKey(fault, stream string, index uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(fault); i++ {
		h = (h ^ uint64(fault[i])) * 1099511628211
	}
	h = (h ^ '|') * 1099511628211
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return splitmix64(splitmix64(uint64(in.spec.Seed)^h) ^ index)
}

// uniform returns the deterministic uniform draw in [0,1) for one
// decision point.
func (in *Injector) uniform(fault, stream string, index uint64) float64 {
	return float64(in.hashKey(fault, stream, index)>>11) / (1 << 53)
}

// scripted returns the scripted fault covering (stream, index), if any.
func (in *Injector) scripted(stream string, index uint64) (string, bool) {
	for _, sf := range in.spec.Script {
		if index < sf.From || index >= sf.To {
			continue
		}
		if sf.Stream != "" && !strings.Contains(stream, sf.Stream) {
			continue
		}
		return sf.Fault, true
	}
	return "", false
}

// prob returns the configured probability for a fault kind.
func (in *Injector) prob(fault string) float64 {
	switch fault {
	case FaultDrop:
		return in.spec.Drop
	case FaultCorrupt:
		return in.spec.Corrupt
	case FaultDelay:
		return in.spec.Delay
	case FaultReset:
		return in.spec.Reset
	case FaultCrash:
		return in.spec.Crash
	case FaultHang:
		return in.spec.Hang
	case FaultFail:
		return in.spec.Fail
	}
	return 0
}

// decide picks the fault (if any) for one decision point out of the
// given candidate kinds. Scripted entries win; otherwise the first
// candidate whose uniform draw clears its probability fires. Pure —
// no state is read or written, so the plan is interleaving-proof.
func (in *Injector) decide(candidates []string, stream string, index uint64) (string, bool) {
	if f, ok := in.scripted(stream, index); ok {
		for _, c := range candidates {
			if c == f {
				return f, true
			}
		}
		return "", false // scripted fault of the other class (exec vs transport)
	}
	for _, f := range candidates {
		if p := in.prob(f); p > 0 && in.uniform(f, stream, index) < p {
			return f, true
		}
	}
	return "", false
}

// delayFor derives the injected delay for one frame from its decision
// hash, uniform in [DelayMin, DelayMax].
func (in *Injector) delayFor(stream string, index uint64) time.Duration {
	span := in.spec.DelayMax - in.spec.DelayMin
	if span <= 0 {
		return in.spec.DelayMin
	}
	u := float64(in.hashKey(FaultDelay+"/amount", stream, index)>>11) / (1 << 53)
	return in.spec.DelayMin + time.Duration(u*float64(span))
}

// record logs one injected fault: event list, counter family, span.
func (in *Injector) record(fault, stream string, index uint64, detail string, start time.Time) {
	in.mu.Lock()
	if len(in.events) < eventRetention {
		in.events = append(in.events, Event{Fault: fault, Stream: stream, Index: index, Detail: detail})
	} else {
		in.dropped++
	}
	c := in.counts[fault]
	if c == nil && in.reg != nil {
		c = in.reg.Counter(fmt.Sprintf("chaos_injected_total{fault=%q}", fault))
		in.counts[fault] = c
	}
	in.mu.Unlock()
	c.Inc()
	if in.tracer != nil {
		in.tracer.Ingest(obs.Span{
			Name:  "chaos " + fault,
			Proc:  stream,
			Attrs: map[string]string{"stream": stream, "index": strconv.FormatUint(index, 10), "detail": detail},
			Start: start,
			End:   time.Now(),
		})
	}
}
