package workqueue

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// WorkerState is the liveness state of one worker as judged by the
// master from heartbeats and results: alive → suspect (one liveness
// window missed) → dead (evicted, in-flight task requeued).
type WorkerState string

const (
	WorkerAlive   WorkerState = "alive"
	WorkerSuspect WorkerState = "suspect"
	WorkerDead    WorkerState = "dead"
)

// WorkerHealth is one worker's row in the master's health registry — the
// payload of the /cluster endpoint and Status.WorkersDetail.
type WorkerHealth struct {
	ID    string      `json:"id"`
	State WorkerState `json:"state"`
	// Reason explains a dead state ("heartbeat timeout", "disconnected",
	// "released").
	Reason      string    `json:"reason,omitempty"`
	ConnectedAt time.Time `json:"connectedAt"`
	LastSeen    time.Time `json:"lastSeen"`
	// TasksCompleted / TasksFailed count results observed by the master
	// from this worker (failed = results carrying an error).
	TasksCompleted int64 `json:"tasksCompleted"`
	TasksFailed    int64 `json:"tasksFailed"`
	// EWMAExecMs is the exponentially weighted moving average of the
	// worker's task execution time; TasksPerSec the EWMA completion rate.
	EWMAExecMs  float64 `json:"ewmaExecMs"`
	TasksPerSec float64 `json:"tasksPerSec"`
	// Straggler flags a worker whose EWMA exec time exceeds the
	// configured factor times the cluster median.
	Straggler bool `json:"straggler"`
	// InflightTask is the oldest un-acked task (the next expected ack);
	// InflightCount the size of the whole dispatch window — larger than 1
	// only with task batching.
	InflightTask  string `json:"inflightTask,omitempty"`
	InflightCount int    `json:"inflightCount,omitempty"`
	Heartbeats    int64  `json:"heartbeats"`
	// EWMATransferMs is the master-measured wire transfer time per task
	// (round trip minus the execution of its result frame), smoothed.
	EWMATransferMs float64 `json:"ewmaTransferMs"`
	// ClockSkewMs estimates the worker clock's offset from the master
	// clock (positive = worker clock ahead); RTTMs the message round-trip
	// time. Both are NTP-style estimates from the send/receive timestamps
	// carried on task frames, heartbeats and results.
	ClockSkewMs float64 `json:"clockSkewMs"`
	RTTMs       float64 `json:"rttMs"`
}

// EWMA smoothing factors: exec time favors history (straggler detection
// should not flip on one outlier), the rate tracks load changes faster.
// Clock-leg and transfer estimates also favor history: one delayed
// message must not yank the skew that aligns remote span timestamps.
const (
	ewmaExecAlpha     = 0.2
	ewmaRateAlpha     = 0.3
	ewmaClockAlpha    = 0.2
	ewmaTransferAlpha = 0.2
)

// defaultStragglerFactor flags workers slower than 2x the cluster median.
const defaultStragglerFactor = 2.0

// deadRetention bounds how many departed workers the registry remembers
// for observability before the oldest entries are dropped.
const deadRetention = 64

// workerEntry is the registry's mutable record for one worker.
type workerEntry struct {
	id          string
	state       WorkerState
	reason      string
	connectedAt time.Time
	lastSeen    time.Time
	wake        context.CancelFunc
	conn        net.Conn
	// codec is the handler's framed connection, kept so the master can
	// broadcast control frames (FreezeRings) from outside the handler
	// goroutine — codec sends are mutex-serialized. Nil in tests that
	// attach without a connection.
	codec    *codec
	released bool
	// windowHead and windowLen are the head and length of the handler's
	// un-acked window, as it last published them.
	windowHead  string
	windowLen   int
	heartbeats  int64
	tasksDone   int64
	tasksFailed int64
	ewmaExecMs  float64
	ewmaRate    float64
	lastDone    time.Time
	// ship is the worker's latest telemetry ship, the baseline the next
	// one's growth is folded from.
	ship obs.RegistrySnapshot

	// Clock alignment: EWMAs of the two one-way message legs. d1 is the
	// worker→master leg observed on the master clock (receive time minus
	// the worker's SentUnixNano stamp = transit − skew); d2 the
	// master→worker leg observed on the worker clock (the reported
	// TaskDelayNs = transit + skew). Assuming symmetric transit,
	// skew = (d2−d1)/2 and RTT = d1+d2 — NTP's derivation.
	d1Ns, d2Ns   float64
	hasD1, hasD2 bool
	// ewmaTransferMs smooths the wire transfer of EWMATransferMs.
	ewmaTransferMs float64
	hasTransfer    bool
	// wasStraggler remembers the previous health snapshot's straggler
	// verdict so the flight recorder trips only on the flag's rising edge.
	wasStraggler bool
}

// skewNs returns the estimated worker-clock offset from the master clock
// in nanoseconds (positive = worker ahead), and whether both legs have
// been observed. Callers hold cl.mu.
func (e *workerEntry) skewNs() (float64, bool) {
	if !e.hasD1 || !e.hasD2 {
		return 0, false
	}
	return (e.d2Ns - e.d1Ns) / 2, true
}

// cluster is the master's per-worker health registry: it tracks every
// attached worker's liveness and throughput, folds each worker's
// telemetry ships into the master's metrics registry under per-worker
// labels, and keeps recently departed workers visible.
type cluster struct {
	mu     sync.Mutex
	active map[string]*workerEntry
	gone   []*workerEntry // most recent last, capped at deadRetention

	reg    *obs.Registry       // master metrics registry; may be nil
	factor float64             // straggler threshold multiplier
	rec    *flightrec.Recorder // tripped by a newly flagged straggler; may be nil

	cHeartbeats *obs.Counter
	cEvictions  *obs.Counter
}

func newCluster(reg *obs.Registry, stragglerFactor float64, rec *flightrec.Recorder) *cluster {
	if stragglerFactor <= 0 {
		stragglerFactor = defaultStragglerFactor
	}
	return &cluster{
		active:      make(map[string]*workerEntry),
		reg:         reg,
		factor:      stragglerFactor,
		rec:         rec,
		cHeartbeats: reg.Counter("wq_heartbeats_total"),
		cEvictions:  reg.Counter("wq_worker_evictions_total"),
	}
}

// workerUp is wq_worker_up{worker}'s value per state; a departed worker
// reads 0, as a dead one does.
var workerUp = map[WorkerState]float64{WorkerAlive: 1, WorkerSuspect: 0.5}

// gaugesLocked publishes e's state as wq_worker_up{worker} and recounts
// the wq_workers and wq_workers_suspect gauges. Callers hold cl.mu.
func (cl *cluster) gaugesLocked(e *workerEntry) {
	if cl.reg == nil {
		return
	}
	suspect := 0
	for _, a := range cl.active {
		if a.state == WorkerSuspect {
			suspect++
		}
	}
	cl.reg.Gauge(workerLabel("wq_worker_up", e.id)).Set(workerUp[e.state])
	cl.reg.Gauge("wq_workers").SetInt(len(cl.active))
	cl.reg.Gauge("wq_workers_suspect").SetInt(suspect)
}

// workerLabel builds a per-worker labeled metric name, name{worker="id"}.
func workerLabel(name, id string) string {
	return obs.Label(name, "worker", id)
}

// attach registers a connecting worker. Duplicate live IDs are rejected:
// two connections claiming one identity would corrupt the health record.
func (cl *cluster) attach(id string, wake context.CancelFunc, conn net.Conn, c *codec) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if _, dup := cl.active[id]; dup {
		return fmt.Errorf("workqueue: worker id %q already attached", id)
	}
	now := time.Now()
	e := &workerEntry{
		id:          id,
		state:       WorkerAlive,
		connectedAt: now,
		lastSeen:    now,
		wake:        wake,
		conn:        conn,
		codec:       c,
	}
	// A re-attaching worker's next ship grows from its last one.
	for i := len(cl.gone) - 1; i >= 0; i-- {
		if cl.gone[i].id == id {
			e.ship = cl.gone[i].ship
			break
		}
	}
	cl.active[id] = e
	cl.gaugesLocked(e)
	return nil
}

// detach removes a worker from the active set when its handler exits,
// remembering it as dead with the given reason (unless liveness already
// marked it dead with a more specific one).
func (cl *cluster) detach(id, reason string) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	e, ok := cl.active[id]
	if !ok {
		return
	}
	delete(cl.active, id)
	if e.state != WorkerDead {
		e.state = WorkerDead
		e.reason = reason
	}
	e.windowHead, e.windowLen = "", 0
	cl.gone = append(cl.gone, e)
	if len(cl.gone) > deadRetention {
		cl.gone = cl.gone[len(cl.gone)-deadRetention:]
	}
	cl.gaugesLocked(e)
}

// seenLocked refreshes liveness on any message from the worker.
func (cl *cluster) seenLocked(e *workerEntry) {
	e.lastSeen = time.Now()
	if e.state == WorkerSuspect {
		e.state = WorkerAlive
		cl.gaugesLocked(e)
	}
}

// with runs fn on id's entry under the registry lock; an id that is not
// attached is ignored.
func (cl *cluster) with(id string, fn func(e *workerEntry)) {
	cl.mu.Lock()
	if e, ok := cl.active[id]; ok {
		fn(e)
	}
	cl.mu.Unlock()
}

// ewma folds x into *avg with weight alpha, or starts it at x.
func ewma(avg *float64, first bool, x, alpha float64) {
	if first {
		*avg = x
	} else {
		*avg = alpha*x + (1-alpha)**avg
	}
}

// heartbeat records a liveness ping.
func (cl *cluster) heartbeat(id string) {
	cl.with(id, func(e *workerEntry) {
		e.heartbeats++
		cl.seenLocked(e)
		cl.cHeartbeats.Inc()
	})
}

// recordShip folds a worker's telemetry ship into the master registry
// under its worker label: the growth since its previous ship, or the
// shipped value for a gauge.
func (cl *cluster) recordShip(id string, snap *obs.RegistrySnapshot) {
	cl.with(id, func(e *workerEntry) {
		cl.reg.Fold(e.ship, *snap, "worker", id)
		e.ship = *snap
	})
}

// setWindowLocked records the head and length of a handler's un-acked
// window. Callers hold cl.mu.
func (e *workerEntry) setWindowLocked(window []sentTask) {
	e.windowHead, e.windowLen = "", len(window)
	if len(window) > 0 {
		e.windowHead = window[0].task.ID
	}
}

// publishWindow records the handler's un-acked window after a dispatch.
func (cl *cluster) publishWindow(id string, window []sentTask) {
	cl.with(id, func(e *workerEntry) { e.setWindowLocked(window) })
}

// taskFinished folds one acked result and its measured wire transfer time
// (round trip minus worker-reported execution; ignored when not positive)
// into the worker's estimates, and records the window left after the ack.
// A result is also proof of life.
func (cl *cluster) taskFinished(id string, r Result, transfer time.Duration, window []sentTask) {
	cl.with(id, func(e *workerEntry) {
		e.setWindowLocked(window)
		if transfer > 0 {
			ewma(&e.ewmaTransferMs, !e.hasTransfer, float64(transfer)/float64(time.Millisecond), ewmaTransferAlpha)
			e.hasTransfer = true
		}
		cl.seenLocked(e)
		ewma(&e.ewmaExecMs, e.tasksDone+e.tasksFailed == 0, float64(r.Elapsed)/float64(time.Millisecond), ewmaExecAlpha)
		now := time.Now()
		if dt := now.Sub(e.lastDone).Seconds(); !e.lastDone.IsZero() && dt > 0 {
			ewma(&e.ewmaRate, e.ewmaRate == 0, 1/dt, ewmaRateAlpha)
		}
		e.lastDone = now
		if r.Err != "" {
			e.tasksFailed++
		} else {
			e.tasksDone++
		}
	})
}

// observeClock folds one message's clock timestamps into the worker's
// skew estimate. d1Ns is the worker→master leg (master receive time minus
// the message's SentUnixNano); d2Ns the reported master→worker task
// delivery leg (TaskDelayNs). Pass 0 for a leg the message did not carry.
func (cl *cluster) observeClock(id string, d1Ns, d2Ns int64) {
	if d1Ns == 0 && d2Ns == 0 {
		return
	}
	cl.with(id, func(e *workerEntry) {
		if d1Ns != 0 {
			ewma(&e.d1Ns, !e.hasD1, float64(d1Ns), ewmaClockAlpha)
			e.hasD1 = true
		}
		if d2Ns != 0 {
			ewma(&e.d2Ns, !e.hasD2, float64(d2Ns), ewmaClockAlpha)
			e.hasD2 = true
		}
	})
}

// clockAdjustNs returns the offset to add to a worker-clock timestamp to
// place it on the master clock (−skew), or 0 until both legs of the
// estimate have been observed.
func (cl *cluster) clockAdjustNs(id string) (adj int64) {
	cl.with(id, func(e *workerEntry) {
		if skew, ok := e.skewNs(); ok {
			adj = int64(-skew)
		}
	})
	return adj
}

// checkLiveness transitions one worker's state from the time since its
// last message: past suspectAfter it becomes suspect, past deadAfter it
// is marked dead and the entry's reason is set — the caller then severs
// the connection, which requeues any in-flight task through the normal
// worker-loss path. Returns the state after the check.
func (cl *cluster) checkLiveness(id string, suspectAfter, deadAfter time.Duration) WorkerState {
	state := WorkerDead
	cl.with(id, func(e *workerEntry) {
		silent := time.Since(e.lastSeen)
		switch {
		case deadAfter > 0 && silent >= deadAfter:
			if e.state != WorkerDead {
				e.state = WorkerDead
				e.reason = fmt.Sprintf("heartbeat timeout (silent %s)", silent.Round(time.Millisecond))
				cl.cEvictions.Inc()
				cl.gaugesLocked(e)
			}
		case suspectAfter > 0 && silent >= suspectAfter:
			if e.state == WorkerAlive {
				e.state = WorkerSuspect
				cl.gaugesLocked(e)
			}
		}
		state = e.state
	})
	return state
}

// release marks a worker for graceful exit and returns its wake func
// (nil when unknown).
func (cl *cluster) release(id string) (wake context.CancelFunc) {
	cl.with(id, func(e *workerEntry) { e.released, wake = true, e.wake })
	return wake
}

func (cl *cluster) isReleased(id string) (released bool) {
	cl.with(id, func(e *workerEntry) { released = e.released })
	return released
}

// count reports attached (non-departed) workers.
func (cl *cluster) count() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.active)
}

// codecs snapshots the attached workers' codecs so the master's gather
// step can broadcast FreezeRings outside cl.mu.
func (cl *cluster) codecs() []*codec {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]*codec, 0, len(cl.active))
	for _, e := range cl.active {
		if e.codec != nil {
			out = append(out, e.codec)
		}
	}
	return out
}

// health snapshots every known worker — attached first (sorted by ID),
// then recently departed — computing straggler flags against the cluster
// median EWMA exec time.
func (cl *cluster) health() []WorkerHealth {
	// Trip after the registry lock is released (deferred funcs run LIFO):
	// a newly flagged straggler freezes the flight-recorder rings and
	// dumps the timing history showing where the slow worker's time went.
	var flipped []string
	defer func() {
		for _, detail := range flipped {
			cl.rec.Trip(flightrec.TrigStraggler, "worker flagged straggler: "+detail)
		}
	}()
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]WorkerHealth, 0, len(cl.active)+len(cl.gone))
	// Median over active workers that have completed work; the lower
	// median for even counts keeps a 2-worker cluster able to flag its
	// slow half.
	ewmas := make([]float64, 0, len(cl.active))
	for _, e := range cl.active {
		if e.tasksDone+e.tasksFailed > 0 {
			ewmas = append(ewmas, e.ewmaExecMs)
		}
	}
	sort.Float64s(ewmas)
	median := 0.0
	if len(ewmas) > 0 {
		median = ewmas[(len(ewmas)-1)/2]
	}
	for _, e := range cl.active {
		h := healthRow(e)
		h.Straggler = len(ewmas) >= 2 && median > 0 &&
			e.tasksDone+e.tasksFailed > 0 && e.ewmaExecMs > cl.factor*median
		if h.Straggler && !e.wasStraggler {
			flipped = append(flipped, fmt.Sprintf("%s (%.1fms vs median %.1fms)", e.id, e.ewmaExecMs, median))
		}
		e.wasStraggler = h.Straggler
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	for i := len(cl.gone) - 1; i >= 0; i-- {
		out = append(out, healthRow(cl.gone[i]))
	}
	return out
}

func healthRow(e *workerEntry) WorkerHealth {
	h := WorkerHealth{
		ID:             e.id,
		State:          e.state,
		Reason:         e.reason,
		ConnectedAt:    e.connectedAt,
		LastSeen:       e.lastSeen,
		TasksCompleted: e.tasksDone,
		TasksFailed:    e.tasksFailed,
		EWMAExecMs:     e.ewmaExecMs,
		TasksPerSec:    e.ewmaRate,
		InflightTask:   e.windowHead,
		InflightCount:  e.windowLen,
		Heartbeats:     e.heartbeats,
		EWMATransferMs: e.ewmaTransferMs,
	}
	if skew, ok := e.skewNs(); ok {
		h.ClockSkewMs = skew / float64(time.Millisecond)
		h.RTTMs = (e.d1Ns + e.d2Ns) / float64(time.Millisecond)
	}
	return h
}

// ClusterHealth snapshots the master's per-worker health registry:
// attached workers first (sorted by ID), then recently departed ones.
func (m *Master) ClusterHealth() []WorkerHealth {
	return m.cluster.health()
}

// ClusterHandler serves the health registry as JSON — the /cluster
// endpoint (GET only).
func (m *Master) ClusterHandler() http.Handler {
	return jsonHandler(func() any { return m.ClusterHealth() })
}
