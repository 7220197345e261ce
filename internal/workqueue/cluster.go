package workqueue

import (
	"context"
	"encoding/json"
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
	// (round trip minus worker-reported execution), smoothed.
	EWMATransferMs float64 `json:"ewmaTransferMs"`
	// ClockSkewMs estimates the worker clock's offset from the master
	// clock (positive = worker clock ahead); RTTMs the message round-trip
	// time. Both are NTP-style estimates from the send/receive timestamps
	// carried on task frames, heartbeats and results.
	ClockSkewMs float64 `json:"clockSkewMs"`
	RTTMs       float64 `json:"rttMs"`
	// Remote is the worker's metrics registry (worker_* counters, gauges
	// and the exec-time histogram) as its latest telemetry ship carried
	// it: nil until the first ship arrives, or on a re-attach the last
	// ship of the worker's previous connection.
	Remote *obs.RegistrySnapshot `json:"remote,omitempty"`
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
	// inflight is the dispatch-ordered window of un-acked task IDs; with
	// batching a worker may hold many at once, the head being the next
	// expected ack.
	inflight    []string
	heartbeats  int64
	tasksDone   int64
	tasksFailed int64
	ewmaExecMs  float64
	ewmaRate    float64
	lastDone    time.Time
	// remote is the latest telemetry as decoded; its maps are never
	// mutated, so health rows share it.
	remote *obs.RegistrySnapshot

	// Clock alignment: EWMAs of the two one-way message legs. d1 is the
	// worker→master leg observed on the master clock (receive time minus
	// the worker's SentUnixNano stamp = transit − skew); d2 the
	// master→worker leg observed on the worker clock (the reported
	// TaskDelayNs = transit + skew). Assuming symmetric transit,
	// skew = (d2−d1)/2 and RTT = d1+d2 — NTP's derivation.
	d1Ns, d2Ns   float64
	hasD1, hasD2 bool
	// ewmaTransferMs smooths the master-measured per-task wire transfer
	// time (round trip minus worker-reported execution).
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
// attached worker's liveness, throughput and self-reported telemetry,
// aggregates remote snapshots into the master's metrics registry under
// per-worker labels, and keeps recently departed workers visible.
type cluster struct {
	mu     sync.Mutex
	active map[string]*workerEntry
	gone   []*workerEntry // most recent last, capped at deadRetention

	reg    *obs.Registry // master metrics registry; may be nil
	factor float64       // straggler threshold multiplier

	cHeartbeats *obs.Counter
	cEvictions  *obs.Counter
	gSuspect    *obs.Gauge
}

func newCluster(reg *obs.Registry, stragglerFactor float64) *cluster {
	if stragglerFactor <= 0 {
		stragglerFactor = defaultStragglerFactor
	}
	return &cluster{
		active:      make(map[string]*workerEntry),
		reg:         reg,
		factor:      stragglerFactor,
		cHeartbeats: reg.Counter("wq_heartbeats_total"),
		cEvictions:  reg.Counter("wq_worker_evictions_total"),
		gSuspect:    reg.Gauge("wq_workers_suspect"),
	}
}

// workerLabel builds a per-worker labeled metric name that the obs
// Prometheus exporter renders as name{worker="id"}.
func workerLabel(name, id string) string {
	return fmt.Sprintf("%s{worker=%q}", name, id)
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
			e.remote = cl.gone[i].remote
			break
		}
	}
	cl.active[id] = e
	cl.reg.Gauge(workerLabel("wq_worker_up", id)).Set(1)
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
	e.inflight = nil
	cl.gone = append(cl.gone, e)
	if len(cl.gone) > deadRetention {
		cl.gone = cl.gone[len(cl.gone)-deadRetention:]
	}
	cl.reg.Gauge(workerLabel("wq_worker_up", id)).Set(0)
	cl.updateSuspectGaugeLocked()
}

// seenLocked refreshes liveness on any message from the worker.
func (cl *cluster) seenLocked(e *workerEntry) {
	e.lastSeen = time.Now()
	if e.state == WorkerSuspect {
		e.state = WorkerAlive
		cl.reg.Gauge(workerLabel("wq_worker_up", e.id)).Set(1)
		cl.updateSuspectGaugeLocked()
	}
}

// heartbeat records a liveness ping.
func (cl *cluster) heartbeat(id string) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	e, ok := cl.active[id]
	if !ok {
		return
	}
	e.heartbeats++
	cl.seenLocked(e)
	cl.cHeartbeats.Inc()
}

// recordShip stores a worker's registry snapshot as its latest telemetry
// ship carried it, for /cluster, and folds the growth since the previous
// ship into the master registry under per-worker labels. It reads the
// names newWorkerInstruments registers.
func (cl *cluster) recordShip(id string, snap *obs.RegistrySnapshot) {
	cl.mu.Lock()
	e, ok := cl.active[id]
	if !ok {
		cl.mu.Unlock()
		return
	}
	var prev obs.RegistrySnapshot
	if e.remote != nil {
		prev = *e.remote
	}
	e.remote = snap
	reg := cl.reg
	cl.mu.Unlock()

	if reg == nil {
		return
	}
	// Counters and the connection-byte gauges are cumulative on the
	// worker; only their growth since the previous ship is added. A value
	// below the previous one is a reset (a fresh registry or connection),
	// so all of it is growth: the Prometheus rule.
	grow := func(name string, cur, old int64) {
		if cur < old {
			old = 0
		}
		if cur > old {
			reg.Counter(workerLabel(name, id)).Add(cur - old)
		}
	}
	grow("wq_worker_tasks_total", snap.Counters[mWorkerExecuted], prev.Counters[mWorkerExecuted])
	grow("wq_worker_tasks_failed_total", snap.Counters[mWorkerFailed], prev.Counters[mWorkerFailed])
	grow("wq_worker_bytes_in_total", int64(snap.Gauges[mWorkerBytesIn]), int64(prev.Gauges[mWorkerBytesIn]))
	grow("wq_worker_bytes_out_total", int64(snap.Gauges[mWorkerBytesOut]), int64(prev.Gauges[mWorkerBytesOut]))
	reg.Gauge(workerLabel("wq_worker_goroutines", id)).Set(snap.Gauges[mWorkerGoroutines])
	reg.Gauge(workerLabel("wq_worker_heap_bytes", id)).Set(snap.Gauges[mWorkerHeap])
	if exec := snap.Histograms[mWorkerExec]; len(exec.Bounds) > 0 {
		reg.Histogram(workerLabel("wq_worker_exec_ms", id), exec.Bounds).AddSnapshotDelta(prev.Histograms[mWorkerExec], exec)
	}
}

// taskAssigned appends taskID to the worker's in-flight window.
func (cl *cluster) taskAssigned(id, taskID string) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if e, ok := cl.active[id]; ok {
		e.inflight = append(e.inflight, taskID)
	}
}

// taskAborted clears the in-flight window after a send failure or worker
// loss (the tasks themselves are requeued by the master).
func (cl *cluster) taskAborted(id string) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if e, ok := cl.active[id]; ok {
		e.inflight = nil
	}
}

// taskFinished folds one observed result into the worker's throughput
// estimates. A result is also proof of life.
func (cl *cluster) taskFinished(id string, r Result) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	e, ok := cl.active[id]
	if !ok {
		return
	}
	for i, tid := range e.inflight {
		if tid == r.TaskID {
			e.inflight = append(e.inflight[:i], e.inflight[i+1:]...)
			break
		}
	}
	cl.seenLocked(e)
	execMs := float64(r.Elapsed) / float64(time.Millisecond)
	if e.tasksDone+e.tasksFailed == 0 {
		e.ewmaExecMs = execMs
	} else {
		e.ewmaExecMs = ewmaExecAlpha*execMs + (1-ewmaExecAlpha)*e.ewmaExecMs
	}
	now := time.Now()
	if !e.lastDone.IsZero() {
		if dt := now.Sub(e.lastDone).Seconds(); dt > 0 {
			inst := 1 / dt
			if e.ewmaRate == 0 {
				e.ewmaRate = inst
			} else {
				e.ewmaRate = ewmaRateAlpha*inst + (1-ewmaRateAlpha)*e.ewmaRate
			}
		}
	}
	e.lastDone = now
	if r.Err != "" {
		e.tasksFailed++
	} else {
		e.tasksDone++
	}
}

// observeClock folds one message's clock timestamps into the worker's
// skew estimate. d1Ns is the worker→master leg (master receive time minus
// the message's SentUnixNano); d2Ns the reported master→worker task
// delivery leg (TaskDelayNs). Pass 0 for a leg the message did not carry.
func (cl *cluster) observeClock(id string, d1Ns, d2Ns int64) {
	if d1Ns == 0 && d2Ns == 0 {
		return
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	e, ok := cl.active[id]
	if !ok {
		return
	}
	if d1Ns != 0 {
		if !e.hasD1 {
			e.d1Ns, e.hasD1 = float64(d1Ns), true
		} else {
			e.d1Ns = ewmaClockAlpha*float64(d1Ns) + (1-ewmaClockAlpha)*e.d1Ns
		}
	}
	if d2Ns != 0 {
		if !e.hasD2 {
			e.d2Ns, e.hasD2 = float64(d2Ns), true
		} else {
			e.d2Ns = ewmaClockAlpha*float64(d2Ns) + (1-ewmaClockAlpha)*e.d2Ns
		}
	}
}

// clockAdjustNs returns the offset to add to a worker-clock timestamp to
// place it on the master clock (−skew), or 0 until both legs of the
// estimate have been observed.
func (cl *cluster) clockAdjustNs(id string) int64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	e, ok := cl.active[id]
	if !ok {
		return 0
	}
	skew, ok := e.skewNs()
	if !ok {
		return 0
	}
	return int64(-skew)
}

// observeTransfer folds one task's measured wire transfer time (master
// round trip minus worker-reported execution) into the worker's EWMA.
func (cl *cluster) observeTransfer(id string, transfer time.Duration) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	e, ok := cl.active[id]
	if !ok {
		return
	}
	ms := float64(transfer) / float64(time.Millisecond)
	if !e.hasTransfer {
		e.ewmaTransferMs, e.hasTransfer = ms, true
	} else {
		e.ewmaTransferMs = ewmaTransferAlpha*ms + (1-ewmaTransferAlpha)*e.ewmaTransferMs
	}
}

// checkLiveness transitions one worker's state from the time since its
// last message: past suspectAfter it becomes suspect, past deadAfter it
// is marked dead and the entry's reason is set — the caller then severs
// the connection, which requeues any in-flight task through the normal
// worker-loss path. Returns the state after the check.
func (cl *cluster) checkLiveness(id string, suspectAfter, deadAfter time.Duration) WorkerState {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	e, ok := cl.active[id]
	if !ok {
		return WorkerDead
	}
	silent := time.Since(e.lastSeen)
	switch {
	case deadAfter > 0 && silent >= deadAfter:
		if e.state != WorkerDead {
			e.state = WorkerDead
			e.reason = fmt.Sprintf("heartbeat timeout (silent %s)", silent.Round(time.Millisecond))
			cl.cEvictions.Inc()
			cl.reg.Gauge(workerLabel("wq_worker_up", id)).Set(0)
			cl.updateSuspectGaugeLocked()
		}
	case suspectAfter > 0 && silent >= suspectAfter:
		if e.state == WorkerAlive {
			e.state = WorkerSuspect
			cl.reg.Gauge(workerLabel("wq_worker_up", id)).Set(0.5)
			cl.updateSuspectGaugeLocked()
		}
	}
	return e.state
}

func (cl *cluster) updateSuspectGaugeLocked() {
	if cl.gSuspect == nil {
		return
	}
	n := 0
	for _, e := range cl.active {
		if e.state == WorkerSuspect {
			n++
		}
	}
	cl.gSuspect.SetInt(n)
}

// release marks a worker for graceful exit and returns its wake func
// (nil when unknown).
func (cl *cluster) release(id string) context.CancelFunc {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	e, ok := cl.active[id]
	if !ok {
		return nil
	}
	e.released = true
	return e.wake
}

func (cl *cluster) isReleased(id string) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	e, ok := cl.active[id]
	return ok && e.released
}

// count reports attached (non-departed) workers.
func (cl *cluster) count() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.active)
}

// workerCodec pairs a worker ID with its framed connection for control
// broadcasts.
type workerCodec struct {
	id string
	c  *codec
}

// codecs snapshots the attached workers' codecs (sorted by ID) so the
// master's gather step can broadcast FreezeRings outside cl.mu.
func (cl *cluster) codecs() []workerCodec {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]workerCodec, 0, len(cl.active))
	for id, e := range cl.active {
		if e.codec != nil {
			out = append(out, workerCodec{id: id, c: e.codec})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
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
			flightrec.Trip(flightrec.TrigStraggler, "worker flagged straggler: "+detail)
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
		InflightCount:  len(e.inflight),
		Heartbeats:     e.heartbeats,
		EWMATransferMs: e.ewmaTransferMs,
	}
	if len(e.inflight) > 0 {
		h.InflightTask = e.inflight[0]
	}
	if skew, ok := e.skewNs(); ok {
		h.ClockSkewMs = skew / float64(time.Millisecond)
		h.RTTMs = (e.d1Ns + e.d2Ns) / float64(time.Millisecond)
	}
	h.Remote = e.remote
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
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m.ClusterHealth()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
