package main

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
	"github.com/social-sensing/sstd/internal/obs/slo"
	"github.com/social-sensing/sstd/internal/obs/tsdb"
)

// newTelemetryServer mounts a real store, SLO engine and flight recorder
// behind the same routes sstd-master's -telemetry address serves, so the
// CLI is tested against the actual handlers rather than canned JSON.
func newTelemetryServer(t *testing.T) (*httptest.Server, *tsdb.Store, *slo.Engine, *obs.Registry, *flightrec.Recorder) {
	t.Helper()
	store := tsdb.New(0)
	src := obs.NewRegistry()
	engine := slo.New(slo.Config{Source: src, OnAlert: func(slo.Objective, slo.Status) {}}, slo.Objective{
		Name: "deadline", Good: "dtm_deadline_hit_total", Bad: "dtm_deadline_miss_total",
		Target: 0.9, FastWindow: time.Second, SlowWindow: 2 * time.Second, BurnThreshold: 1,
	})
	rec, err := flightrec.NewRecorder(flightrec.Config{Dir: t.TempDir(), Cooldown: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/query", store.Handler())
	mux.Handle("/slo", engine.Handler())
	mux.Handle("/debug/flightrec", rec.Handler())
	mux.Handle("/debug/flightrec/", rec.Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, store, engine, src, rec
}

// sstdctl runs one command line against srv and returns what it printed.
func sstdctl(t *testing.T, srv *httptest.Server, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(append([]string{"-addr", srv.URL}, args...), &out); err != nil {
		t.Fatalf("sstdctl %v: %v", args, err)
	}
	return out.String()
}

func TestClientQueryAndDiscovery(t *testing.T) {
	srv, store, _, _, _ := newTelemetryServer(t)
	now := time.Now()
	for i := 0; i < 5; i++ {
		snap := obs.RegistrySnapshot{Gauges: map[string]float64{`wq_worker_goroutines{worker="w-1"}`: float64(i)}}
		store.Ingest(snap, now.Add(time.Duration(i)*time.Second))
	}

	// Discovery: no series selected lists names.
	if out := sstdctl(t, srv, "query"); out != "1 series:\n  wq_worker_goroutines\n" {
		t.Fatalf("discovery output = %q", out)
	}

	// Selection with a label matcher; -limit caps the points served.
	out := sstdctl(t, srv, "query", "-series", "wq_worker_goroutines", "-label", "worker=w-1", "-limit", "3")
	if !strings.HasPrefix(out, `wq_worker_goroutines{worker="w-1"}  (3 points)`) {
		t.Errorf("series output = %q", out)
	}

	// A mismatched matcher selects nothing.
	if out := sstdctl(t, srv, "query", "-series", "wq_worker_goroutines", "-label", "worker=elsewhere"); out != "no series retained\n" {
		t.Errorf("matcher should have excluded all series: %q", out)
	}
}

func TestClientSLO(t *testing.T) {
	srv, _, engine, src, _ := newTelemetryServer(t)
	src.Counter("dtm_deadline_hit_total").Add(9)
	src.Counter("dtm_deadline_miss_total").Add(1)
	engine.Tick(time.Now())

	out := sstdctl(t, srv, "slo")
	if lines := strings.Split(out, "\n"); len(lines) < 2 || !strings.HasPrefix(lines[1], "deadline") || !strings.Contains(lines[1], " 9 ") {
		t.Fatalf("slo output = %q", out)
	}
}

func TestClientErrorsSurfaceBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad label selector", http.StatusBadRequest)
	}))
	defer srv.Close()
	err := run([]string{"-addr", srv.URL, "query", "-series", "x"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "bad label selector") {
		t.Fatalf("err = %v, want body surfaced", err)
	}
}

// TestDumpList: dump trips the recorder through its HTTP handler and
// prints the dump it wrote; dump -list reads the recorder's history back.
func TestDumpList(t *testing.T) {
	srv, _, _, _, rec := newTelemetryServer(t)
	if out := sstdctl(t, srv, "dump", "-list"); out != "no flight-recorder dumps\n" {
		t.Errorf("empty history output = %q", out)
	}

	out := sstdctl(t, srv, "dump")
	dumps := rec.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("recorder dumps = %+v, want the one sstdctl tripped", dumps)
	}
	path := dumps[0].Path
	if filepath.Base(path) != "flightrec-001-manual.trace.json" {
		t.Errorf("dump path = %q", path)
	}
	if !strings.Contains(out, "trigger=manual  hosts=master") || !strings.Contains(out, path) {
		t.Errorf("dump output = %q", out)
	}
	if list := sstdctl(t, srv, "dump", "-list"); list != out {
		t.Errorf("dump -list = %q, want the dump sstdctl printed: %q", list, out)
	}
}
