package workqueue

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
	"github.com/social-sensing/sstd/internal/obs/tsdb"
)

// slowConn delays every write, as a loaded worker host does: a master
// that stops reading the moment it asks the worker to leave misses what
// the worker still sends.
type slowConn struct {
	net.Conn
	delay time.Duration
}

func (c slowConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

// TestShutdownFlushesFinalStatsAndTelemetry is the regression test for
// the graceful-shutdown flush: a short-lived worker that never reached
// its telemetry cadence must still deliver a final telemetry ship on the
// way out, so its last window of work reaches the master's registry, and
// the time-series store through the master's scrape of it. The worker writes
// slowly, so the ship arrives only because the master waits for the
// worker to hang up after asking it to leave.
func TestShutdownFlushesFinalStatsAndTelemetry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()
	m := NewMaster(MasterConfig{ResultBuffer: 8, Metrics: reg})

	mconn, wconn := pipePair()
	done := make(chan struct{})
	go func() { _ = m.HandleWorker(ctx, mconn); close(done) }()
	wdone := make(chan struct{})
	go func() {
		w := &Worker{
			ID:      "brief",
			Exec:    echoExec,
			Metrics: obs.NewRegistry(),
			// A long heartbeat interval: no periodic ship can fire during
			// the test, so any telemetry the master sees came from the
			// shutdown flush.
			HeartbeatEvery: time.Hour,
		}
		_ = w.Run(ctx, slowConn{wconn, 20 * time.Millisecond})
		close(wdone)
	}()

	for i := 0; i < 3; i++ {
		if err := m.Submit(Task{ID: string(rune('a' + i)), JobID: "j", Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, m, 3)
	m.Shutdown()
	<-done
	<-wdone

	// The final snapshot landed in the master registry under the worker's
	// label...
	if got := reg.Counter(workerLabel("wq_worker_tasks_total", "brief")).Value(); got != 3 {
		t.Errorf("wq_worker_tasks_total{worker=brief} = %d, want 3 (shutdown flush)", got)
	}
	// ...and a scrape of that registry, as sstd-master's, puts it in the
	// time-series store under the same label.
	store := tsdb.New(0)
	store.Ingest(reg.Snapshot(), time.Now())
	res := store.Run(tsdb.Query{
		Name:     "wq_worker_tasks_total",
		Matchers: map[string]string{"worker": "brief"},
	}, time.Now())
	if len(res) != 1 || len(res[0].Points) == 0 {
		t.Fatalf("tsdb series for brief worker = %+v, want 1 series with points", res)
	}
	if last := res[0].Points[len(res[0].Points)-1].V; last != 3 {
		t.Errorf("wq_worker_tasks_total last point = %v, want 3", last)
	}
}

// TestCollectClusterDumpMergesHosts drives a full gather round: two
// in-process workers with private recorders answer the FreezeRings
// broadcast of the master recorder's trip, and the one file that trip
// writes puts master and both workers on distinct process lanes.
func TestCollectClusterDumpMergesHosts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mrec := mustRecorder(t)
	m := NewMaster(MasterConfig{ResultBuffer: 8, FlightRec: mrec})
	defer m.Shutdown()

	for _, id := range []string{"w-1", "w-2"} {
		rec, err := flightrec.NewRecorder(flightrec.Config{})
		if err != nil {
			t.Fatal(err)
		}
		mconn, wconn := pipePair()
		go func() { _ = m.HandleWorker(ctx, mconn) }()
		go func(id string) {
			w := &Worker{ID: id, Exec: echoExec, FlightRec: rec}
			_ = w.Run(ctx, wconn)
		}(id)
	}
	waitFor(t, func() bool { return m.WorkerCount() == 2 }, "workers attached")

	// A little traffic so every host's codec ring holds events.
	for i := 0; i < 4; i++ {
		if err := m.Submit(Task{ID: string(rune('a' + i)), JobID: "j", Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, m, 4)

	if !mrec.Trip(flightrec.TrigManual, "test collection") {
		t.Fatal("master recorder refused the trip")
	}
	mrec.Wait()
	info := mrec.Dumps()[0]
	wantHosts := []string{"master", "w-1", "w-2"}
	if strings.Join(info.Hosts, ",") != strings.Join(wantHosts, ",") {
		t.Fatalf("dump hosts = %v, want %v", info.Hosts, wantHosts)
	}
	if info.Events == 0 {
		t.Error("merged dump carries no events")
	}
	// One trip, one file.
	files, err := os.ReadDir(filepath.Dir(info.Path))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != "flightrec-001-manual.trace.json" {
		t.Errorf("dump directory holds %v, want exactly flightrec-001-manual.trace.json", files)
	}

	// The trace parses and puts each host on its own pid lane.
	lanes := map[string]int{}
	for _, e := range readTrace(t, info.Path) {
		if e.Ph == "M" && e.Name == "process_name" {
			lanes[e.Args["name"]] = e.Pid
		}
	}
	for name, want := range map[string]int{"master": 1, "host w-1": 2, "host w-2": 3} {
		if lanes[name] != want {
			t.Errorf("lane %q = pid %d, want %d (all lanes: %v)", name, lanes[name], want, lanes)
		}
	}
}

// TestWorkerTripStartsClusterCollection: a worker-local recorder trip
// ships an unsolicited dump, which trips the master's recorder; its
// gather step freezes every worker, the tripping one included.
func TestWorkerTripStartsClusterCollection(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mrec := mustRecorder(t)
	m := NewMaster(MasterConfig{ResultBuffer: 8, FlightRec: mrec})
	defer m.Shutdown()

	wrec, err := flightrec.NewRecorder(flightrec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mconn, wconn := pipePair()
	go func() { _ = m.HandleWorker(ctx, mconn) }()
	go func() {
		w := &Worker{ID: "tripper", Exec: echoExec, FlightRec: wrec}
		_ = w.Run(ctx, wconn)
	}()
	waitFor(t, func() bool { return m.WorkerCount() == 1 }, "worker attached")

	if !wrec.Trip(flightrec.TrigManual, "worker-side trip") {
		t.Fatal("worker recorder refused the trip")
	}
	waitFor(t, func() bool { mrec.Wait(); return len(mrec.Dumps()) == 1 }, "master dump after worker trip")
	h := mrec.Dumps()[0]
	if h.Trigger != flightrec.TrigManual || h.Detail != "worker tripper: worker-side trip" {
		t.Errorf("dump trigger/detail = %q/%q, want %q/%q", h.Trigger, h.Detail, flightrec.TrigManual, "worker tripper: worker-side trip")
	}
	if len(h.Hosts) != 2 || h.Hosts[0] != "master" || h.Hosts[1] != "tripper" {
		t.Errorf("dump hosts = %v, want [master tripper]", h.Hosts)
	}
	if _, err := os.Stat(h.Path); err != nil {
		t.Errorf("trace missing: %v", err)
	}
}

// TestFlightDumpFiledUnderConnection is the regression test for trusting
// a worker's word about whose dump it sends: the trace's lane and the
// clock-skew correction come from the connection the dump arrived on. A
// raw-codec worker whose clock runs an hour ahead answers the freeze
// calling itself "master"; its event must still land on its own lane,
// shifted back onto the master clock by its own skew.
func TestFlightDumpFiledUnderConnection(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mrec := mustRecorder(t)
	m := NewMaster(MasterConfig{ResultBuffer: 8, FlightRec: mrec})
	defer m.Shutdown()
	// A reference event on the master clock.
	ref := mrec.NewRing("ref")
	ref.Probe(flightrec.ProbeMasterAck, ref.Start(), 0, 0)

	c := rawWorker(t, ctx, m, "w-fake")
	defer func() { _ = c.close() }()
	// Both legs of the skew estimate say the worker clock is an hour ahead.
	const skew = int64(time.Hour)
	if err := c.send(message{Type: msgHeartbeat, WorkerID: "w-fake", SentUnixNano: time.Now().UnixNano() + skew, TaskDelayNs: skew}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		h, _ := findWorker(m.ClusterHealth(), "w-fake")
		return h.ClockSkewMs > 3500e3
	}, "skew estimate for w-fake")

	if !mrec.Trip(flightrec.TrigManual, "forged identity") {
		t.Fatal("master recorder refused the trip")
	}
	msg, err := c.recv()
	if err != nil || msg.Type != msgFreeze {
		t.Fatalf("want a freeze, got %+v, %v", msg, err)
	}
	at := time.Now().UnixNano() + skew
	if err := c.send(message{Type: msgFlightDump, WorkerID: "master", Dump: &FlightDump{
		Seq: msg.Freeze.Seq, Trigger: msg.Freeze.Trigger,
		Events: []flightrec.Event{{Ring: "codec", Probe: "codec.encode", T0: at, T1: at + 1000}},
	}}); err != nil {
		t.Fatal(err)
	}
	mrec.Wait()
	info := mrec.Dumps()[0]
	if len(info.Hosts) != 2 || info.Hosts[0] != "master" || info.Hosts[1] != "w-fake" {
		t.Fatalf("dump hosts = %v, want [master w-fake]", info.Hosts)
	}

	lanes := map[string]int{}
	ts := map[string]int64{}
	for _, e := range readTrace(t, info.Path) {
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			lanes[e.Args["name"]] = e.Pid
		case e.Name == "codec.encode":
			ts["worker"] = e.Ts
			if e.Args["host"] != "w-fake" || e.Pid != lanes["host w-fake"] {
				t.Errorf("worker event on host %q pid %d, want host w-fake on its lane (lanes %v)", e.Args["host"], e.Pid, lanes)
			}
		case e.Name == "master.ack":
			ts["master"] = e.Ts
		}
	}
	if len(ts) != 2 {
		t.Fatalf("merged trace lacks the worker or the reference event: %v", ts)
	}
	// Uncorrected, the worker event would sit an hour after the reference.
	if d := time.Duration(ts["worker"]-ts["master"]) * time.Microsecond; d < -time.Minute || d > time.Minute {
		t.Errorf("worker event %v from the master reference, want it within a minute after skew correction", d)
	}
}

// TestLateFreezeReplyStartsNoRound is the regression test for a freeze
// reply that outlives its round: it carries the round's trigger, but only
// Seq 0 asks for a trip, so the master drops it instead of gathering
// again.
func TestLateFreezeReplyStartsNoRound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	shortenGather(t, 20*time.Millisecond)
	mrec := mustRecorder(t)
	m := NewMaster(MasterConfig{ResultBuffer: 8, FlightRec: mrec})
	defer m.Shutdown()
	c := rawWorker(t, ctx, m, "w-late")
	defer func() { _ = c.close() }()

	if !mrec.Trip(flightrec.TrigManual, "round 1") {
		t.Fatal("master recorder refused the trip")
	}
	msg, err := c.recv()
	if err != nil || msg.Type != msgFreeze {
		t.Fatalf("want a freeze, got %+v, %v", msg, err)
	}
	mrec.Wait() // round 1 times out without the reply
	at := time.Now().UnixNano()
	if err := c.send(message{Type: msgFlightDump, WorkerID: "w-late", Dump: &FlightDump{
		Seq: msg.Freeze.Seq, Trigger: msg.Freeze.Trigger, Detail: msg.Freeze.Detail,
		Events: []flightrec.Event{{Ring: "codec", Probe: "codec.encode", T0: at, T1: at + 1000}},
	}}); err != nil {
		t.Fatal(err)
	}
	// A second round would freeze this worker again.
	_ = c.conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if msg, err := c.recv(); err == nil {
		t.Fatalf("late reply started another round: got %+v", msg)
	}
	mrec.Wait()
	if d := mrec.Dumps(); len(d) != 1 || strings.Join(d[0].Hosts, ",") != "master" {
		t.Errorf("dumps = %+v, want one with the master lane only", d)
	}
}

// TestGatherCountsEachHostOnce: a connection that answers one freeze
// twice must not end the round early; the slower worker's reply still
// makes the gather.
func TestGatherCountsEachHostOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{ResultBuffer: 8, FlightRec: mustRecorder(t)})
	defer m.Shutdown()
	var wg sync.WaitGroup
	answer := func(id string, replies int, after time.Duration) {
		c := rawWorker(t, ctx, m, id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { _ = c.close() }()
			msg, err := c.recv()
			if err != nil || msg.Type != msgFreeze {
				t.Errorf("%s: want a freeze, got %+v, %v", id, msg, err)
				return
			}
			time.Sleep(after)
			for i := 0; i < replies; i++ {
				at := time.Now().UnixNano()
				_ = c.send(message{Type: msgFlightDump, WorkerID: id, Dump: &FlightDump{
					Seq: msg.Freeze.Seq, Trigger: msg.Freeze.Trigger,
					Events: []flightrec.Event{{Ring: "codec", Probe: "codec.encode", T0: at, T1: at + 1000}},
				}})
			}
		}()
	}
	answer("w-dup", 2, 0)
	answer("w-slow", 1, 100*time.Millisecond)
	hosts := m.gather(flightrec.TrigManual, "duplicate reply", time.Minute)
	wg.Wait()
	got := map[string]int{}
	for _, h := range hosts {
		got[h.Host]++
	}
	if len(hosts) != 2 || got["w-dup"] != 1 || got["w-slow"] != 1 {
		t.Errorf("gathered hosts %v, want w-dup and w-slow once each", got)
	}
}

// rawWorker attaches a hand-driven worker connection to m under id. The
// caller closes it before shutting m down, which would otherwise block
// sending the shutdown frame nobody reads.
func rawWorker(t *testing.T, ctx context.Context, m *Master, id string) *codec {
	t.Helper()
	mconn, wconn := pipePair()
	go func() { _ = m.HandleWorker(ctx, mconn) }()
	c := newCodec(wconn)
	if err := c.send(message{Type: msgHello, WorkerID: id}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, ok := findWorker(m.ClusterHealth(), id); return ok }, "worker "+id+" attached")
	return c
}

type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Pid  int               `json:"pid"`
	Args map[string]string `json:"args"`
}

// readTrace parses a Chrome trace file's events.
func readTrace(t *testing.T, path string) []traceEvent {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace %s does not parse: %v", path, err)
	}
	return doc.TraceEvents
}

func mustRecorder(t *testing.T) *flightrec.Recorder {
	t.Helper()
	rec, err := flightrec.NewRecorder(flightrec.Config{Dir: t.TempDir(), Cooldown: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}
