package workqueue

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// ClusterDumpConfig parameterizes cross-host flight-dump collection. On a
// trip the master broadcasts a FreezeRings request to every attached
// worker, waits (bounded) for their ring snapshots, corrects each one
// onto the master clock with the per-worker skew estimate, and writes a
// single merged multi-host Chrome trace with one process lane per host.
type ClusterDumpConfig struct {
	// Dir is where merged cluster traces land
	// (flightrec-cluster-NNN-<trigger>.trace.json).
	Dir string
	// Window bounds how far back each host's snapshot reaches (0 = the
	// recorders' full retained history).
	Window time.Duration
	// Timeout bounds the wait for worker replies (default 2s). A worker
	// mid-task answers after its result; one past the timeout is simply
	// absent from the merged trace.
	Timeout time.Duration
	// Cooldown is the minimum gap between collections (default 5s), so a
	// trigger storm yields one cluster dump, not one per trip.
	Cooldown time.Duration
}

// ClusterDumpInfo describes one completed cluster-wide collection.
type ClusterDumpInfo struct {
	Seq     int    `json:"seq"`
	Path    string `json:"path"`
	Trigger string `json:"trigger"`
	Detail  string `json:"detail,omitempty"`
	// Hosts lists the lanes present in the merged trace ("master" first,
	// then responding workers sorted by ID).
	Hosts  []string  `json:"hosts"`
	Events int       `json:"events"`
	At     time.Time `json:"at"`
}

// clusterDumpRetention bounds the in-memory collection history.
const clusterDumpRetention = 32

// dumpCollector routes one collection round's worker replies from the
// per-connection reader goroutines to the collecting goroutine.
type dumpCollector struct {
	seq     int64
	replies chan hostDump
}

// hostDump is a worker's flight dump filed under the connection it
// arrived on — the only host identity the master trusts, since it picks
// the merged trace's lane and the clock-skew correction.
type hostDump struct {
	host string
	dump FlightDump
}

// handleFlightDump routes a dump arriving on workerID's connection: a
// reply whose Seq matches the pending collection feeds that round; an
// unsolicited dump (worker-initiated trip, Trigger set) starts a new
// cluster-wide collection seeded with the worker's own events.
func (m *Master) handleFlightDump(workerID string, d *FlightDump) {
	if d == nil || m.clusterDumps == nil {
		return
	}
	hd := hostDump{host: workerID, dump: *d}
	m.dumpMu.Lock()
	col := m.dumpPending
	m.dumpMu.Unlock()
	if col != nil && d.Seq == col.seq {
		select {
		case col.replies <- hd:
		default:
		}
		return
	}
	if d.Trigger != "" {
		go func() { _, _ = m.collectClusterDump(d.Trigger, d.Detail, []hostDump{hd}) }()
	}
}

// CollectClusterDump runs one cross-host collection round now (the same
// path a flight-recorder trip takes) and reports the merged trace it
// wrote. It fails when a round is already in flight or the cooldown has
// not elapsed.
func (m *Master) CollectClusterDump(trigger, detail string) (*ClusterDumpInfo, error) {
	return m.collectClusterDump(trigger, detail, nil)
}

func (m *Master) collectClusterDump(trigger, detail string, seed []hostDump) (*ClusterDumpInfo, error) {
	cfg := m.clusterDumps
	if cfg == nil {
		return nil, errors.New("workqueue: cluster dump collection is not enabled")
	}
	cooldown := cfg.Cooldown
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}

	m.dumpMu.Lock()
	if m.dumpPending != nil {
		m.dumpMu.Unlock()
		return nil, errors.New("workqueue: cluster dump collection already in flight")
	}
	if !m.dumpLast.IsZero() && time.Since(m.dumpLast) < cooldown {
		m.dumpMu.Unlock()
		return nil, fmt.Errorf("workqueue: cluster dump in cooldown (%s)", cooldown)
	}
	m.dumpSeq++
	seq := m.dumpSeq
	m.dumpLast = time.Now()
	targets := m.cluster.codecs()
	col := &dumpCollector{seq: seq, replies: make(chan hostDump, len(targets)+1)}
	m.dumpPending = col
	m.dumpMu.Unlock()
	defer func() {
		m.dumpMu.Lock()
		m.dumpPending = nil
		m.dumpMu.Unlock()
	}()

	got := make(map[string]FlightDump, len(targets)+len(seed))
	for _, d := range seed {
		got[d.host] = d.dump
	}

	// Broadcast FreezeRings. Codec sends are mutex-serialized, so writing
	// from this goroutine cannot interleave with the handler's task sends.
	freeze := &FreezeRequest{Seq: seq, Trigger: trigger, Detail: detail, WindowNs: int64(cfg.Window)}
	expect := 0
	for _, t := range targets {
		if _, seeded := got[t.id]; seeded {
			continue
		}
		if err := t.c.send(message{Type: msgFreeze, Freeze: freeze}); err == nil {
			expect++
		}
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for expect > 0 {
		select {
		case d := <-col.replies:
			if _, dup := got[d.host]; !dup {
				expect--
			}
			got[d.host] = d.dump
		case <-deadline.C:
			expect = 0
		}
	}

	// Merge: the master's own recorder events plus every reply, each
	// worker's timestamps shifted by the skew estimate onto the master
	// clock. Hosts that never responded are simply absent.
	masterEvents := m.clusterRec.Events(cfg.Window)
	hosts := make([]obs.HostEvents, 0, len(got)+1)
	hosts = append(hosts, obs.HostEvents{Host: "master", Events: masterEvents})
	names := []string{"master"}
	total := len(masterEvents)
	for host, d := range got {
		hosts = append(hosts, obs.HostEvents{
			Host:   host,
			SkewNs: m.cluster.clockAdjustNs(host),
			Events: d.Events,
		})
		names = append(names, host)
		total += len(d.Events)
	}
	sort.Strings(names[1:])

	path := filepath.Join(cfg.Dir, fmt.Sprintf("flightrec-cluster-%03d-%s.trace.json", seq, trigger))
	if err := obs.WriteChromeTraceFile(path, m.tracer.Spans(), hosts); err != nil {
		m.logger.Warn("cluster flight dump failed",
			obs.F("trigger", trigger), obs.F("path", path), obs.Err(err))
		return nil, obs.Wrap(err)
	}
	info := ClusterDumpInfo{
		Seq: int(seq), Path: path, Trigger: trigger, Detail: detail,
		Hosts: names, Events: total, At: time.Now(),
	}
	m.dumpMu.Lock()
	m.dumpHistory = append(m.dumpHistory, info)
	if len(m.dumpHistory) > clusterDumpRetention {
		m.dumpHistory = m.dumpHistory[len(m.dumpHistory)-clusterDumpRetention:]
	}
	m.dumpMu.Unlock()
	m.logger.Info("cluster flight dump written",
		obs.F("trigger", trigger), obs.F("path", path),
		obs.F("hosts", len(names)), obs.F("events", total))
	return &info, nil
}

// ClusterDumpHistory reports completed collections, oldest first.
func (m *Master) ClusterDumpHistory() []ClusterDumpInfo {
	m.dumpMu.Lock()
	defer m.dumpMu.Unlock()
	return append([]ClusterDumpInfo(nil), m.dumpHistory...)
}

// ClusterDumpHandler serves the collection history (GET) and triggers a
// manual collection round (POST) — mount under /dump/cluster.
func (m *Master) ClusterDumpHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			history := m.ClusterDumpHistory()
			if history == nil {
				history = []ClusterDumpInfo{} // empty array, not null
			}
			_ = enc.Encode(history)
		case http.MethodPost:
			info, err := m.CollectClusterDump(flightrec.TrigManual, "requested via /dump/cluster")
			if err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(info)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}
