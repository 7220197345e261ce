package dtm

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
	"github.com/social-sensing/sstd/internal/obs/slo"
	"github.com/social-sensing/sstd/internal/obs/tsdb"
	"github.com/social-sensing/sstd/internal/socialsensing"
)

// TestClusterTelemetryPlaneEndToEnd exercises the whole telemetry plane
// against a live 2-worker cluster: workers ship metrics snapshots into
// the master's registry, whose scrapes feed the time-series store, an
// SLO burn-rate alert
// trips the master's flight recorder, whose gather step freezes both
// workers over the wire, and the result is ONE Chrome trace with master
// and both workers on distinct per-host lanes — all visible on the real
// HTTP endpoints sstdctl reads. It is half of the flightrec tier of
// scripts/check.sh, which names the directory the trace is left in.
func TestClusterTelemetryPlaneEndToEnd(t *testing.T) {
	dir := dumpDir(t, "TELEMETRY_DIR")
	tracer := obs.NewTracer(4096)
	reg := obs.NewRegistry()
	store := tsdb.New(0)
	mrec, err := flightrec.NewRecorder(flightrec.Config{
		Dir: dir, Window: 30 * time.Second, Cooldown: time.Millisecond, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	wrecs := map[string]*flightrec.Recorder{}
	for _, id := range []string{"pool-worker-0", "pool-worker-1"} {
		rec, err := flightrec.NewRecorder(flightrec.Config{Cooldown: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		wrecs[id] = rec
	}

	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	cfg.Workers = 2
	cfg.heartbeat = 20 * time.Millisecond
	cfg.Metrics = reg
	cfg.Tracer = tracer
	cfg.FlightRec = mrec
	cfg.workerFlightRec = func(id string) *flightrec.Recorder { return wrecs[id] }
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	// Both workers must have registered before any job runs: jobs this
	// small can all finish on the first worker, and a dump gathered then
	// has two hosts, not three.
	for start := time.Now(); len(m.ClusterHealth()) < cfg.Workers; runtime.Gosched() {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("only %d of %d workers registered", len(m.ClusterHealth()), cfg.Workers)
		}
	}

	// The SLO engine watches the dtm deadline counters; its firing edge
	// trips the master-side recorder, whose dump gathers the workers.
	engine := slo.New(slo.Config{
		Source: reg, Metrics: reg,
		OnAlert: func(o slo.Objective, s slo.Status) {
			mrec.Trip(flightrec.TrigSLOBurn, "slo "+o.Name+" burning in both windows")
		},
	}, slo.Objective{
		Name: "deadline", Good: "dtm_deadline_hit_total", Bad: "dtm_deadline_miss_total",
		Target: 0.9, FastWindow: time.Second, SlowWindow: 2 * time.Second, BurnThreshold: 1,
	})
	engine.Tick(time.Now()) // baseline sample before any deadline outcome

	// Jobs with an impossible deadline: every completion is a miss, so the
	// error budget burns at 10x in both windows.
	claims := []socialsensing.ClaimID{"c1", "c2", "c3"}
	for i, c := range claims {
		if err := m.SubmitJob(c, flipReports(c, 20, 10, 4, 0.15, int64(i)+7), time.Nanosecond); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, m, len(claims))
	engine.Tick(time.Now())
	if s := engine.Status()[0]; !s.Firing {
		t.Fatalf("slo not firing after sustained misses: %+v", s)
	}

	// The trip's gather step (FreezeRings → worker replies) has run once
	// the recorder's dump is done.
	mrec.Wait()
	dumps := mrec.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("slo burn trip produced %d dumps, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Trigger != flightrec.TrigSLOBurn {
		t.Errorf("dump trigger = %q, want %q", d.Trigger, flightrec.TrigSLOBurn)
	}
	wantHosts := []string{"master", "pool-worker-0", "pool-worker-1"}
	if len(d.Hosts) != len(wantHosts) {
		t.Fatalf("dump hosts = %v, want %v", d.Hosts, wantHosts)
	}
	for i := range wantHosts {
		if d.Hosts[i] != wantHosts[i] {
			t.Fatalf("dump hosts = %v, want %v", d.Hosts, wantHosts)
		}
	}

	// ONE merged multi-host trace: all three hosts on distinct pid lanes,
	// both workers contributing skew-corrected probe events.
	raw, err := os.ReadFile(d.Path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("merged trace does not parse: %v", err)
	}
	lanes := map[string]int{}
	eventsByPid := map[int]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			lanes[e.Args["name"]] = e.Pid
		}
		if e.Cat == "flightrec" {
			eventsByPid[e.Pid]++
		}
	}
	for name, want := range map[string]int{"master": 1, "host pool-worker-0": 2, "host pool-worker-1": 3} {
		if lanes[name] != want {
			t.Errorf("lane %q = pid %d, want %d (lanes: %v)", name, lanes[name], want, lanes)
		}
	}
	for _, pid := range []int{2, 3} {
		if eventsByPid[pid] == 0 {
			t.Errorf("worker lane pid %d carries no probe events (per-pid counts: %v)", pid, eventsByPid)
		}
	}

	// The live endpoints serve the plane to sstdctl: shipped worker series
	// in /query, the firing objective in /slo, the dump in /debug/flightrec.
	mux := http.NewServeMux()
	mux.Handle("/query", store.Handler())
	mux.Handle("/slo", engine.Handler())
	mux.Handle("/debug/flightrec", mrec.Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()
	get := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}

	// Worker telemetry ships ride every fifth heartbeat; wait for the
	// shipped task counts to land, scraping the master registry into the
	// store as sstd-master does. Either worker may have run every task —
	// they are that small — so the count is taken over both workers.
	deadline := time.Now().Add(10 * time.Second)
	for executed := 0.0; executed == 0; time.Sleep(10 * time.Millisecond) {
		store.Ingest(reg.Snapshot(), time.Now())
		var series tsdb.QueryResult
		get("/query?series=wq_worker_tasks_total", &series)
		for _, s := range series.Series {
			if n := len(s.Points); n > 0 {
				executed += s.Points[n-1].V
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no shipped worker task counts reached the time-series store")
		}
	}
	var statuses []slo.Status
	get("/slo", &statuses)
	if len(statuses) != 1 || !statuses[0].Firing || statuses[0].BadTotal != int64(len(claims)) {
		t.Fatalf("slo over the wire = %+v, want firing with %d misses", statuses, len(claims))
	}
	var st struct{ Dumps []flightrec.DumpInfo }
	get("/debug/flightrec", &st)
	if len(st.Dumps) != 1 || st.Dumps[0].Path != d.Path {
		t.Errorf("dump history over the wire = %+v, want %+v", st.Dumps, d)
	}
}
