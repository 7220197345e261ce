package flightrec

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
)

func newTestRecorder(t *testing.T, cfg Config) *Recorder {
	t.Helper()
	r, err := NewRecorder(cfg)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	return r
}

func TestRingRecordsProbes(t *testing.T) {
	r := newTestRecorder(t, Config{RingSize: 64})
	g := r.Ring("test")
	for i := 0; i < 5; i++ {
		t0 := g.Start()
		g.Probe(ProbeHMMForward, t0, int64(i), 42)
	}
	events := r.Events(0)
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	for i, e := range events {
		if e.Probe != "hmm.forward" {
			t.Errorf("event %d probe = %q, want hmm.forward", i, e.Probe)
		}
		if e.Ring != "test" {
			t.Errorf("event %d ring = %q, want test", i, e.Ring)
		}
		if e.Arg != int64(i) {
			t.Errorf("event %d arg = %d, want %d", i, e.Arg, i)
		}
		if e.Parent != 42 {
			t.Errorf("event %d parent = %d, want 42", i, e.Parent)
		}
		if e.T1 < e.T0 || e.T0 == 0 {
			t.Errorf("event %d has bad interval [%d,%d]", i, e.T0, e.T1)
		}
	}
	if n := g.cur.Load(); n != 5 {
		t.Errorf("ring total = %d, want 5", n)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	var g *Ring
	// None of these may panic.
	g.Probe(ProbeHMMForward, g.Start(), 0, 0)
	if r.Ring("x") != nil || r.NewRing("x") != nil {
		t.Error("nil recorder must hand out nil rings")
	}
	if r.Trip(TrigManual, "") {
		t.Error("nil recorder must not trip")
	}
	if r.Events(0) != nil || r.Dumps() != nil || r.Armed(TrigManual) {
		t.Error("nil recorder accessors should return zero values")
	}
	r.Wait()

	// With no default recorder installed the package helpers are inert.
	Disable()
	if Shared("x") != nil || Fresh("x") != nil || Trip(TrigManual, "") {
		t.Error("package helpers must no-op without an active recorder")
	}
	NewBurst(TrigManual, 1, time.Second).Observe("no recorder")
	var b *Burst
	b.Observe("nil burst")
}

func TestRingOverflowCountsDrops(t *testing.T) {
	reg := obs.NewRegistry()
	r := newTestRecorder(t, Config{RingSize: 4, Metrics: reg})
	g := r.Ring("small")
	for i := 0; i < 10; i++ {
		g.Probe(ProbeCodecCRC, g.Start(), 0, 0)
	}
	events := r.Events(0)
	if len(events) != 4 {
		t.Fatalf("got %d events from a 4-slot ring, want 4", len(events))
	}
	if got := reg.Counter("flightrec_events_dropped_total").Value(); got != 6 {
		t.Errorf("dropped = %d, want 6", got)
	}
}

func TestFrozenSkipsProbes(t *testing.T) {
	r := newTestRecorder(t, Config{RingSize: 16})
	g := r.Ring("x")
	r.frozen.Store(true)
	if g.Start() != 0 {
		t.Error("Start must return 0 while frozen")
	}
	g.Probe(ProbeHMMForward, time.Now().UnixNano(), 0, 0)
	r.frozen.Store(false)
	if got := len(r.Events(0)); got != 0 {
		t.Errorf("frozen ring recorded %d events, want 0", got)
	}
}

func TestEventsWindowFilter(t *testing.T) {
	r := newTestRecorder(t, Config{RingSize: 16})
	g := r.Ring("w")
	g.Probe(ProbeDTMMerge, g.Start(), 0, 0)
	g.Probe(ProbeDTMMerge, g.Start(), 0, 0)
	// Age the first record a minute into the past: Probe always stamps
	// t1=now, so an out-of-window event has to be rewritten in place.
	old := time.Now().Add(-time.Minute).UnixNano()
	g.recs[0].t0.Store(old)
	g.recs[0].t1.Store(old)
	if got := len(r.Events(time.Second)); got != 1 {
		t.Errorf("1s window returned %d events, want 1", got)
	}
	if got := len(r.Events(0)); got != 2 {
		t.Errorf("unbounded window returned %d events, want 2", got)
	}
}

func TestTripWritesDumpAndHonorsCooldown(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	r := newTestRecorder(t, Config{
		RingSize: 64, Dir: dir, Window: time.Minute,
		Cooldown: time.Hour, Metrics: reg, Tracer: tr,
	})
	sp := tr.NewTrace("job")
	g := r.Ring("hmm")
	g.Probe(ProbeHMMForward, g.Start(), 1, sp.SpanID())
	sp.Finish()

	if !r.Trip(TrigDeadlineMiss, "3 misses") {
		t.Fatal("first trip refused")
	}
	r.Wait()
	if r.Trip(TrigDeadlineMiss, "again") {
		t.Error("second trip inside cooldown must be refused")
	}
	dumps := r.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Trigger != TrigDeadlineMiss || d.Events != 1 || d.Spans != 1 {
		t.Errorf("dump = %+v, want trigger=%s events=1 spans=1", d, TrigDeadlineMiss)
	}
	b, err := os.ReadFile(d.Path)
	if err != nil {
		t.Fatalf("reading dump: %v", err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	s := string(b)
	if !strings.Contains(s, "hmm.forward") || !strings.Contains(s, `"job"`) {
		t.Errorf("dump missing event or span:\n%s", s)
	}
	if reg.Counter("flightrec_trips_total").Value() != 1 ||
		reg.Counter("flightrec_dumps_total").Value() != 1 {
		t.Error("trip/dump counters not incremented")
	}
	if r.frozen.Load() {
		t.Error("recorder left frozen after dump")
	}
}

// TestTripHookGathersHosts: the hook runs once the rings have thawed, gets
// the recorder's window, and the hosts it returns land in the trip's one
// file; a host with no events gets no lane and is not listed.
func TestTripHookGathersHosts(t *testing.T) {
	dir := t.TempDir()
	r := newTestRecorder(t, Config{Dir: dir, Window: 3 * time.Second})
	g := r.Ring("master")
	g.Probe(ProbeMasterAck, g.Start(), 0, 0)
	var window time.Duration
	frozen := true
	r.SetOnTrip(func(trigger, detail string, w time.Duration) []obs.HostEvents {
		window, frozen = w, r.frozen.Load()
		now := time.Now().UnixNano()
		ev := []Event{{Ring: "codec", Probe: "codec.encode", T0: now, T1: now + 1}}
		return []obs.HostEvents{{Host: "w-b", Events: ev}, {Host: "w-idle"}, {Host: "w-a", Events: ev}}
	})
	if !r.Trip(TrigManual, "gather") {
		t.Fatal("trip refused")
	}
	r.Wait()
	if window != 3*time.Second || frozen {
		t.Errorf("hook got window %v with rings frozen=%v, want 3s and thawed", window, frozen)
	}
	d := r.Dumps()[0]
	if strings.Join(d.Hosts, ",") != "master,w-a,w-b" || d.Events != 3 {
		t.Errorf("dump hosts %v events %d, want [master w-a w-b] and 3", d.Hosts, d.Events)
	}
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("dump dir holds %v (%v), want one file", files, err)
	}
	b, err := os.ReadFile(d.Path)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(b); !strings.Contains(s, `"host w-a"`) || !strings.Contains(s, `"host w-b"`) || strings.Contains(s, "w-idle") {
		t.Errorf("trace lanes wrong:\n%s", s)
	}
}

func TestTripRespectsDumpOn(t *testing.T) {
	r := newTestRecorder(t, Config{DumpOn: []string{TrigStraggler}})
	if r.Trip(TrigDeadlineMiss, "") {
		t.Error("disarmed trigger tripped")
	}
	if !r.Armed(TrigStraggler) || r.Armed(TrigManual) {
		t.Error("Armed does not reflect DumpOn")
	}
	all := newTestRecorder(t, Config{DumpOn: []string{"all"}})
	if !all.Armed(TrigManual) {
		t.Error(`DumpOn "all" should arm everything`)
	}
}

func TestBurstTrigger(t *testing.T) {
	dir := t.TempDir()
	r, err := Enable(Config{Dir: dir, Cooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer Disable()
	b := NewBurst(TrigDeadlineMiss, 3, time.Minute)
	b.Observe("miss 1")
	b.Observe("miss 2")
	if len(r.Dumps()) != 0 {
		r.Wait()
		t.Fatal("burst tripped below threshold")
	}
	b.Observe("miss 3")
	r.Wait()
	dumps := r.Dumps()
	if len(dumps) != 1 || dumps[0].Trigger != TrigDeadlineMiss {
		t.Fatalf("burst of 3 should have tripped once, got %+v", dumps)
	}
}

func TestDeepDiveNestsEventsUnderSpans(t *testing.T) {
	tr := obs.NewTracer(64)
	r := newTestRecorder(t, Config{Tracer: tr})

	root := tr.NewTrace("job root")
	child := tr.NewSpanIn(root.TraceID(), "decode claim", root.SpanID())
	g := r.Ring("hmm")
	g.Probe(ProbeHMMForward, g.Start(), 1, child.SpanID())
	g2 := r.Ring("loose")
	g2.Probe(ProbeStreamRotate, g2.Start(), 0, 0)
	child.Finish()
	root.Finish()

	var buf strings.Builder
	if err := r.WriteDeepDive(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Tid  int64             `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &trace); err != nil {
		t.Fatalf("deep dive is not valid JSON: %v\n%s", err, buf.String())
	}
	var childLane, eventLane, orphanLane int64
	var childID int64
	for _, ev := range trace.TraceEvents {
		switch ev.Name {
		case "decode claim":
			childLane = ev.Tid
			id, _ := strconv.ParseInt(ev.Args["id"], 10, 64)
			childID = id
		case "hmm.forward":
			eventLane = ev.Tid
			p, _ := strconv.ParseInt(ev.Args["parent"], 10, 64)
			if p != child.SpanID() {
				t.Errorf("hmm.forward parent arg = %d, want %d", p, child.SpanID())
			}
		case "stream.rotate":
			orphanLane = ev.Tid
		}
	}
	if childID != child.SpanID() {
		t.Errorf("decode span id arg = %d, want %d", childID, child.SpanID())
	}
	if childLane == 0 || eventLane != childLane {
		t.Errorf("hmm.forward lane = %d, want the decode span's lane %d", eventLane, childLane)
	}
	if childLane != root.SpanID() {
		t.Errorf("decode span lane = %d, want root span id %d", childLane, root.SpanID())
	}
	if orphanLane < orphanLaneBase {
		t.Errorf("orphan event lane = %d, want a synthetic lane >= %d", orphanLane, orphanLaneBase)
	}
}

func TestHandler(t *testing.T) {
	dir := t.TempDir()
	r := newTestRecorder(t, Config{Dir: dir, Cooldown: time.Hour})
	g := r.Ring("h")
	g.Probe(ProbeMasterAck, g.Start(), 0, 0)
	h := r.Handler()

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	if w := get("/debug/flightrec"); w.Code != 200 || !strings.Contains(w.Body.String(), `"rings"`) {
		t.Errorf("status endpoint: code %d body %s", w.Code, w.Body.String())
	}
	if w := get("/debug/flightrec/events"); w.Code != 200 || !strings.Contains(w.Body.String(), "master.ack") {
		t.Errorf("events endpoint: code %d body %s", w.Code, w.Body.String())
	}
	if w := get("/debug/flightrec/trace"); w.Code != 200 || !strings.Contains(w.Body.String(), "traceEvents") {
		t.Errorf("trace endpoint: code %d", w.Code)
	}
	if w := get("/debug/flightrec/trip"); w.Code != 405 {
		t.Errorf("GET trip: code %d, want 405", w.Code)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/debug/flightrec/trip", nil))
	if w.Code != 200 || !strings.Contains(w.Body.String(), `"tripped"`) {
		t.Errorf("POST trip: code %d body %s", w.Code, w.Body.String())
	}
	r.Wait()
	if files, _ := filepath.Glob(filepath.Join(dir, "flightrec-*.trace.json")); len(files) != 1 {
		t.Errorf("manual trip wrote %d files, want 1", len(files))
	}
}

// TestConcurrentProbesRaceClean hammers one shared ring from many
// goroutines while snapshots and trips run — the acceptance bar is the
// race detector staying quiet and no panics.
func TestConcurrentProbesRaceClean(t *testing.T) {
	r := newTestRecorder(t, Config{RingSize: 128, Cooldown: time.Millisecond})
	g := r.Ring("contended")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					g.Probe(ProbeCodecEncode, g.Start(), id, id)
				}
			}
		}(int64(i))
	}
	for i := 0; i < 20; i++ {
		r.Events(time.Second)
		r.Trip(TrigManual, "race soak")
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	r.Wait()
	for _, e := range r.Events(0) {
		if e.T1 < e.T0 {
			t.Fatalf("torn record survived the snapshot filter: %+v", e)
		}
	}
}

func TestProbeZeroAllocs(t *testing.T) {
	r := newTestRecorder(t, Config{RingSize: 1024})
	g := r.Ring("alloc")
	allocs := testing.AllocsPerRun(1000, func() {
		g.Probe(ProbeHMMForward, g.Start(), 7, 9)
	})
	if allocs != 0 {
		t.Errorf("probe allocates %.1f/op, want 0", allocs)
	}
}

// TestNewRingPastCapSharesNamedRing: the first maxRings private rings are
// distinct; past the cap NewRing hands out the shared ring for the name,
// so a churning caller stops growing the recorder.
func TestNewRingPastCapSharesNamedRing(t *testing.T) {
	r := newTestRecorder(t, Config{RingSize: 16})
	seen := make(map[*Ring]bool, maxRings)
	for i := 0; i < maxRings; i++ {
		g := r.NewRing("codec")
		if seen[g] {
			t.Fatalf("NewRing %d reused a private ring", i)
		}
		seen[g] = true
	}
	shared := r.NewRing("codec")
	if seen[shared] {
		t.Fatal("NewRing past the cap returned a private ring")
	}
	if again := r.NewRing("codec"); again != shared {
		t.Error("NewRing past the cap returned a new ring, want the shared one")
	}
	if g := r.Ring("codec"); g != shared {
		t.Error("NewRing past the cap is not the ring Ring(name) returns")
	}
	if n := len(r.rings); n != maxRings+1 {
		t.Errorf("recorder tracks %d rings, want %d", n, maxRings+1)
	}
}
