// Package flightrec is an always-on flight recorder: fixed-size,
// allocation-free event rings that hot paths probe on every operation
// (HMM kernel phases, codec frames, master scheduling, dtm merges,
// stream windows), passive until an SLO trigger fires — a deadline-miss
// burst, a straggler flag, an admission rejection spike, a task
// quarantine — at which point the recorder freezes, snapshots the last
// window of events across all rings, and writes one deep-dive Chrome
// trace_event file merged with the span tracer's timeline — on a master,
// with every worker's rings gathered onto lanes of their own (SetOnTrip).
//
// The probe fast path is two nil/flag checks, two clock reads, one
// atomic cursor increment and five atomic stores — no allocation, no
// lock, no map, no string. It is cheap enough (<100ns, see
// BenchmarkProbe) to stay enabled in production; when no recorder is
// installed the nil ring makes every probe a single branch.
package flightrec

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
)

// ProbeID identifies a probe site. IDs are dense array indexes into the
// probe-name table so records stay numeric on the hot path.
type ProbeID int32

const (
	// HMM kernel phases, one probe per Baum-Welch iteration phase plus
	// the Viterbi decode — the θ1 kernel cost of Eq. 10. The fused pass
	// accumulates its expected counts inside the backward sweep, so an
	// iteration reports forward and backward per sequence, then M-step.
	ProbeHMMForward ProbeID = iota
	ProbeHMMBackward
	ProbeHMMMStep
	ProbeHMMViterbi
	// Codec frame legs: CRC stamping/checking and binary frame
	// encode/decode — the wire transfer terms of Eq. 10.
	ProbeCodecCRC
	ProbeCodecEncode
	ProbeCodecDecode
	// Master scheduling loop: task handed to a worker, task requeued
	// after a failure, result acknowledged.
	ProbeMasterAssign
	ProbeMasterRequeue
	ProbeMasterAck
	// DTM job legs: outputs merged into the decode task; its answer expanded.
	ProbeDTMMerge
	ProbeDTMFinalize
	// Streaming decoder: window append (a decode), and a mark when an
	// interval leaves the lag window.
	ProbeStreamAppend
	ProbeStreamRotate

	numProbes
)

var probeNames = [numProbes]string{
	"hmm.forward", "hmm.backward", "hmm.mstep", "hmm.viterbi",
	"codec.crc", "codec.encode", "codec.decode",
	"master.assign", "master.requeue", "master.ack",
	"dtm.merge", "dtm.finalize",
	"stream.append", "stream.rotate",
}

// Name returns the probe's dotted name ("hmm.forward", "codec.crc", ...).
func (p ProbeID) Name() string {
	if p < 0 || p >= numProbes {
		return fmt.Sprintf("probe-%d", int32(p))
	}
	return probeNames[p]
}

// record is one ring slot. Every field is atomic so concurrent writers
// (the cursor hands each Probe a private slot, but a lapped ring can
// reassign a slot while a snapshot reads it) stay race-detector clean;
// torn records are filtered at snapshot by the t0/t1 sanity checks.
type record struct {
	probe  atomic.Int64 // ProbeID+1; 0 marks a never-written slot
	t0     atomic.Int64 // unix nanos
	t1     atomic.Int64 // unix nanos
	arg    atomic.Int64 // probe-specific payload (iteration, bytes, ...)
	parent atomic.Int64 // owning tracer span ID (0 = none)
}

// Ring is one fixed-size probe event buffer. Rings created with NewRing
// have a single writer by convention (one per workspace / codec /
// goroutine); shared rings from Recorder.Ring accept concurrent writers
// — the atomic cursor hands each probe a private slot either way. A nil
// *Ring is valid and disables its probes.
type Ring struct {
	name string
	recs []record
	mask uint64
	cur  atomic.Uint64 // total records ever written

	// Probe timestamps are wall-at-recorder-creation plus monotonic
	// elapsed: time.Since on a monotonic base reads only the monotonic
	// clock (~half the cost of time.Now, which reads both), and the
	// stamps stay comparable to the tracer's wall-clock spans.
	base     time.Time
	baseWall int64

	frozen  *atomic.Bool // recorder-wide freeze flag
	dropped *obs.Counter // recorder-wide overwrite counter
}

// Start opens a probe interval: it returns the current time, or 0 when
// the ring is nil or frozen (Probe ignores a zero start). Call it
// immediately before the probed region.
func (g *Ring) Start() int64 {
	if g == nil || g.frozen.Load() {
		return 0
	}
	return int64(time.Since(g.base)) + g.baseWall
}

// Probe closes a probe interval opened by Start, recording
// {id, t0, now, arg, parent} into the ring, and returns its end stamp —
// back-to-back phases chain it as the next probe's t0 so a phase costs
// one clock read, not two:
//
//	t := ring.Start()
//	forward()
//	t = ring.Probe(ProbeHMMForward, t, it, parent)
//	backward()
//	t = ring.Probe(ProbeHMMBackward, t, it, parent)
//
// parent is the tracer span the event belongs under (0 for none); arg
// is probe-specific (EM iteration, frame bytes, window length, ...).
// No-op returning 0 on a nil ring, a zero t0, or a frozen recorder.
func (g *Ring) Probe(id ProbeID, t0, arg, parent int64) int64 {
	if g == nil || t0 == 0 || g.frozen.Load() {
		return 0
	}
	t1 := int64(time.Since(g.base)) + g.baseWall
	pos := g.cur.Add(1) - 1
	r := &g.recs[pos&g.mask]
	r.probe.Store(int64(id) + 1)
	r.t0.Store(t0)
	r.t1.Store(t1)
	r.arg.Store(arg)
	r.parent.Store(parent)
	if pos >= uint64(len(g.recs)) {
		g.dropped.Inc()
	}
	return t1
}

// Trigger names accepted by Trip and Config.DumpOn.
const (
	TrigDeadlineMiss = "deadline-miss" // burst of jobs past their deadline
	TrigStraggler    = "straggler"     // health registry flags a slow worker
	TrigAdmission    = "admission"     // admission gate rejection spike
	TrigQuarantine   = "quarantine"    // poison task quarantined
	TrigSLOBurn      = "slo-burn"      // multi-window SLO burn-rate alert fired
	TrigManual       = "manual"        // /debug/flightrec/trip or tests
)

// maxRings caps how many distinct rings a recorder tracks; past the cap
// NewRing degrades to the shared per-name ring so churning callers
// (reconnecting codecs) cannot grow memory without bound.
const maxRings = 64

// Config parameterizes a Recorder. The zero value is usable: default
// ring size, 1s dump window, 5s trip cooldown, all triggers armed, no
// dump directory (snapshots available over HTTP only).
type Config struct {
	// ringSize is the per-ring capacity in records, rounded up to a
	// power of two (default 4096; one record is 40 bytes). Only the
	// package's tests set it.
	ringSize int
	// Window is how far back a deep-dive dump reaches (default 1s).
	Window time.Duration
	// Cooldown is the minimum gap between dumps (default 5s) so a
	// trigger storm produces one deep dive, not hundreds.
	Cooldown time.Duration
	// Dir is where deep-dive trace files land; empty disables files
	// (triggers still freeze + snapshot for the HTTP endpoint).
	Dir string
	// DumpOn lists the armed triggers (TrigDeadlineMiss, ...); empty or
	// containing "all" arms everything.
	DumpOn []string
	// Tracer supplies the span timeline merged into deep dives; may be
	// nil (events export on synthetic lanes).
	Tracer *obs.Tracer
	// Metrics, when set, exports flightrec_events_dropped_total,
	// flightrec_trips_total and flightrec_dumps_total.
	Metrics *obs.Registry
	// Logger, when set, gets a line per trip and per dump.
	Logger *obs.Logger
}

// TripHook is a dump's gather step (see SetOnTrip). It gets the trip's
// trigger and detail and the recorder's window, and returns other hosts'
// events to merge into the same trace file; nil adds none.
type TripHook func(trigger, detail string, window time.Duration) []obs.HostEvents

// DumpInfo describes one completed deep-dive dump.
type DumpInfo struct {
	Time    time.Time `json:"time"`
	Trigger string    `json:"trigger"`
	Detail  string    `json:"detail,omitempty"`
	Path    string    `json:"path,omitempty"`
	// Hosts lists the trace's lanes: "master" (the local recorder) first,
	// then every host the trip hook returned events for, sorted.
	Hosts  []string `json:"hosts"`
	Events int      `json:"events"`
	Spans  int      `json:"spans"`
}

// Recorder owns the probe rings and the trigger/dump machinery. A nil
// *Recorder is valid: every method no-ops.
type Recorder struct {
	ringSize int
	window   time.Duration
	cooldown time.Duration
	dir      string
	armed    map[string]bool // nil = all triggers armed
	logger   *obs.Logger
	tracer   *obs.Tracer
	base     time.Time // monotonic clock base shared by every ring
	baseWall int64

	frozen atomic.Bool
	onTrip atomic.Pointer[TripHook]

	cDropped *obs.Counter
	cTrips   *obs.Counter
	cDumps   *obs.Counter

	mu       sync.Mutex
	byName   map[string]*Ring // shared rings, by name
	rings    []*Ring          // every ring, shared and private
	lastTrip time.Time
	dumping  bool
	dumpSeq  int
	dumps    []DumpInfo
}

// NewRecorder builds a recorder from cfg, creating cfg.Dir when set.
func NewRecorder(cfg Config) (*Recorder, error) {
	size := cfg.ringSize
	if size <= 0 {
		size = 4096
	}
	// Round up to a power of two so the cursor masks instead of mods.
	pow := 1
	for pow < size {
		pow <<= 1
	}
	window := cfg.Window
	if window <= 0 {
		window = time.Second
	}
	cooldown := cfg.Cooldown
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("flightrec: dump dir: %w", err)
		}
	}
	var armed map[string]bool
	if len(cfg.DumpOn) > 0 {
		armed = make(map[string]bool, len(cfg.DumpOn))
		for _, t := range cfg.DumpOn {
			if t == "all" {
				armed = nil
				break
			}
			armed[t] = true
		}
	}
	now := time.Now()
	r := &Recorder{
		ringSize: pow,
		window:   window,
		cooldown: cooldown,
		dir:      cfg.Dir,
		armed:    armed,
		logger:   cfg.Logger,
		tracer:   cfg.Tracer,
		base:     now,
		baseWall: now.UnixNano(),
		byName:   make(map[string]*Ring),
	}
	if cfg.Metrics != nil {
		r.cDropped = cfg.Metrics.Counter("flightrec_events_dropped_total")
		r.cTrips = cfg.Metrics.Counter("flightrec_trips_total")
		r.cDumps = cfg.Metrics.Counter("flightrec_dumps_total")
	}
	return r, nil
}

func (r *Recorder) newRingLocked(name string) *Ring {
	g := &Ring{
		name:     name,
		recs:     make([]record, r.ringSize),
		mask:     uint64(r.ringSize - 1),
		base:     r.base,
		baseWall: r.baseWall,
		frozen:   &r.frozen,
		dropped:  r.cDropped,
	}
	r.rings = append(r.rings, g)
	return g
}

// Ring returns the shared ring registered under name, creating it on
// first use. Concurrent writers are safe. Nil-safe: a nil recorder
// returns a nil ring.
func (r *Recorder) Ring(name string) *Ring {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.byName[name]; ok {
		return g
	}
	g := r.newRingLocked(name)
	r.byName[name] = g
	return g
}

// NewRing returns a private ring under name — the per-goroutine shape:
// one ring per workspace or codec means zero cursor contention. Past
// maxRings it degrades to the shared per-name ring. Nil-safe.
func (r *Recorder) NewRing(name string) *Ring {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if len(r.rings) < maxRings {
		g := r.newRingLocked(name)
		r.mu.Unlock()
		return g
	}
	r.mu.Unlock()
	return r.Ring(name)
}

// SetOnTrip replaces the trip hook (nil clears it). The hook runs on the
// dump goroutine after the local snapshot thaws the rings, so it may
// block on the network without stalling probe writers; the dump's file
// waits for it. Nil-safe.
func (r *Recorder) SetOnTrip(fn TripHook) {
	if r == nil {
		return
	}
	if fn == nil {
		r.onTrip.Store(nil)
		return
	}
	r.onTrip.Store(&fn)
}

// Armed reports whether trigger would trip this recorder.
func (r *Recorder) Armed(trigger string) bool {
	if r == nil {
		return false
	}
	return r.armed == nil || r.armed[trigger]
}

// Trip fires a trigger: if it is armed and the cooldown has expired the
// recorder freezes and a background goroutine snapshots the last window
// of events and writes the deep-dive file. Returns whether a dump was
// started. Safe to call from hot paths — the slow work is asynchronous.
func (r *Recorder) Trip(trigger, detail string) bool {
	if r == nil || !r.Armed(trigger) {
		return false
	}
	now := time.Now()
	r.mu.Lock()
	if r.dumping || (!r.lastTrip.IsZero() && now.Sub(r.lastTrip) < r.cooldown) {
		r.mu.Unlock()
		return false
	}
	r.dumping = true
	r.lastTrip = now
	r.dumpSeq++
	seq := r.dumpSeq
	r.mu.Unlock()

	r.cTrips.Inc()
	r.frozen.Store(true)
	r.logger.Warn("flightrec trip",
		obs.F("trigger", trigger), obs.F("detail", detail), obs.F("seq", seq))
	go r.dump(seq, trigger, detail)
	return true
}

// dump runs off the hot path: snapshot under freeze, thaw, gather the
// hook's hosts, write one trace file.
func (r *Recorder) dump(seq int, trigger, detail string) {
	// Probes that passed the frozen check just before the trip may still
	// be completing their stores; give them a beat before snapshotting.
	time.Sleep(time.Millisecond)
	hosts := []obs.HostEvents{{Events: r.Events(r.window)}}
	spans := r.tracer.Spans()
	r.frozen.Store(false)
	info := DumpInfo{Time: time.Now(), Trigger: trigger, Detail: detail, Hosts: []string{"master"}, Spans: len(spans)}
	// The hook runs before dumping clears, so Wait() covers it and
	// concurrent trips stay suppressed while it gathers. A host with no
	// events gets no lane.
	if fn := r.onTrip.Load(); fn != nil {
		for _, h := range (*fn)(trigger, detail, r.window) {
			if len(h.Events) > 0 {
				hosts = append(hosts, h)
				info.Hosts = append(info.Hosts, h.Host)
			}
		}
		sort.Strings(info.Hosts[1:])
	}
	for _, h := range hosts {
		info.Events += len(h.Events)
	}
	if r.dir != "" {
		path := filepath.Join(r.dir, fmt.Sprintf("flightrec-%03d-%s.trace.json", seq, trigger))
		if err := obs.WriteChromeTraceFile(path, spans, hosts); err != nil {
			r.logger.Error("flightrec dump failed", obs.F("err", err.Error()), obs.F("path", path))
		} else {
			info.Path = path
			r.cDumps.Inc()
			r.logger.Info("flightrec deep-dive written", obs.F("path", path), obs.F("hosts", len(hosts)),
				obs.F("events", info.Events), obs.F("spans", len(spans)), obs.F("trigger", trigger))
		}
	} else {
		r.cDumps.Inc()
	}
	r.mu.Lock()
	r.dumping = false
	r.dumps = append(r.dumps, info)
	r.mu.Unlock()
}

// Wait blocks until any in-flight dump has finished — binaries call it
// before exit so a trip near shutdown still lands its file. It polls the
// mutex-guarded dump state rather than a WaitGroup so it can race freely
// with new trips.
func (r *Recorder) Wait() {
	if r == nil {
		return
	}
	for {
		r.mu.Lock()
		dumping := r.dumping
		r.mu.Unlock()
		if !dumping {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// Dumps returns the completed dump history, oldest first.
func (r *Recorder) Dumps() []DumpInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DumpInfo, len(r.dumps))
	copy(out, r.dumps)
	return out
}

// active is the process-wide default recorder. Deep library code (HMM
// workspaces, codecs) acquires rings through it so recording needs no
// config plumbing: binaries Enable once at startup, before building the
// components they want probed.
var active atomic.Pointer[Recorder]

// Enable builds a recorder from cfg and installs it as the process
// default.
func Enable(cfg Config) (*Recorder, error) {
	r, err := NewRecorder(cfg)
	if err != nil {
		return nil, err
	}
	active.Store(r)
	return r, nil
}

// Active returns the process default recorder, or nil.
func Active() *Recorder { return active.Load() }

// Shared returns the default recorder's shared ring under name (nil
// when no recorder is installed).
func Shared(name string) *Ring { return Active().Ring(name) }

// Fresh returns a private single-writer ring from the default recorder
// (nil when no recorder is installed).
func Fresh(name string) *Ring { return Active().NewRing(name) }

// Trip fires a trigger on the default recorder.
func Trip(trigger, detail string) bool { return Active().Trip(trigger, detail) }

// EnableCLI installs the default recorder from the binaries'
// -flight-record directory, with every trigger armed. Call it before
// constructing the components to be probed — rings are bound at
// component construction. An empty dir turns recording off: it
// uninstalls any default recorder and returns nil. Rings already handed
// out keep recording into the old recorder; new ring lookups return nil.
func EnableCLI(dir string, tracer *obs.Tracer, metrics *obs.Registry, logger *obs.Logger) (*Recorder, error) {
	if dir == "" {
		active.Store(nil)
		return nil, nil
	}
	return Enable(Config{Dir: dir, Tracer: tracer, Metrics: metrics, Logger: logger})
}
