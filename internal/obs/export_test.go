package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jobs_total").Add(3)
	reg.Gauge("queue_depth").SetInt(7)
	h := reg.Histogram("latency_ms", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE jobs_total counter\njobs_total 3\n",
		"# TYPE queue_depth gauge\nqueue_depth 7\n",
		"# TYPE latency_ms histogram\n",
		`latency_ms_bucket{le="1"} 1`,
		`latency_ms_bucket{le="10"} 2`, // cumulative
		`latency_ms_bucket{le="+Inf"} 3`,
		"latency_ms_sum 55.5",
		"latency_ms_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("n").Inc()
	reg.Gauge("g").Set(2.5)
	reg.Histogram("h", []float64{1}).Observe(0.5)

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap RegistrySnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if snap.Counters["n"] != 1 || snap.Gauges["g"] != 2.5 || snap.Histograms["h"].Count != 1 {
		t.Errorf("round trip lost values: %+v", snap)
	}
}

func TestPromNameSanitizes(t *testing.T) {
	base, labels := promName("core.acs-build ms")
	if base != "core_acs_build_ms" || labels != "" {
		t.Errorf("promName = %q, %q", base, labels)
	}
}

func TestPromNameSplitsLabels(t *testing.T) {
	base, labels := promName(`wq_worker_exec_ms{worker="w-1"}`)
	if base != "wq_worker_exec_ms" || labels != `worker="w-1"` {
		t.Errorf("promName = %q, %q", base, labels)
	}
}

func TestWritePrometheusLabeledMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`wq_worker_tasks_total{worker="a"}`).Add(2)
	reg.Counter(`wq_worker_tasks_total{worker="b"}`).Add(5)
	reg.Gauge(`wq_worker_up{worker="a"}`).Set(1)
	h := reg.Histogram(`wq_worker_exec_ms{worker="a"}`, []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`wq_worker_tasks_total{worker="a"} 2`,
		`wq_worker_tasks_total{worker="b"} 5`,
		`wq_worker_up{worker="a"} 1`,
		`wq_worker_exec_ms_bucket{worker="a",le="1"} 1`,
		`wq_worker_exec_ms_bucket{worker="a",le="+Inf"} 2`,
		`wq_worker_exec_ms_sum{worker="a"} 5.5`,
		`wq_worker_exec_ms_count{worker="a"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// One TYPE header per base name, even with two labeled series.
	if got := strings.Count(out, "# TYPE wq_worker_tasks_total counter"); got != 1 {
		t.Errorf("TYPE header count = %d, want 1:\n%s", got, out)
	}
	// Label blocks must not leak into base names.
	if strings.Contains(out, `_ms{worker="a"}_bucket`) {
		t.Errorf("labels leaked into histogram series names:\n%s", out)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total").Inc()
	tr := NewTracer(8)
	s := tr.NewSpan("op", 0)
	s.Finish()
	lg := NewLogger(nil, LevelInfo, 8)
	lg.Info("hello", F("n", 1))
	h := Handler(reg, tr, lg)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	if rec := get("/metrics"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Errorf("/metrics: code=%d body=%q", rec.Code, rec.Body.String())
	}
	rec := get("/metrics?format=json")
	var snap RegistrySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil || snap.Counters["hits_total"] != 1 {
		t.Errorf("/metrics?format=json: err=%v body=%q", err, rec.Body.String())
	}
	rec = get("/trace")
	var chrome struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	// One process_name metadata record (pid 1 = master) plus the span.
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil || len(chrome.TraceEvents) != 2 {
		t.Errorf("/trace: err=%v events=%d", err, len(chrome.TraceEvents))
	}
	rec = get("/trace?format=json")
	var spans []Span
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil || len(spans) != 1 || spans[0].Name != "op" {
		t.Errorf("/trace?format=json: err=%v spans=%+v", err, spans)
	}
	rec = get("/logs")
	var entries []LogEntry
	if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil || len(entries) != 1 || entries[0].Msg != "hello" {
		t.Errorf("/logs: err=%v entries=%+v", err, entries)
	}
	if rec := get("/debug/pprof/cmdline"); rec.Code != 200 {
		t.Errorf("/debug/pprof/cmdline: code=%d", rec.Code)
	}
	post := httptest.NewRecorder()
	h.ServeHTTP(post, httptest.NewRequest("POST", "/metrics", nil))
	if post.Code != 405 {
		t.Errorf("POST /metrics: code=%d, want 405", post.Code)
	}
}

func TestHandlerNilSinks(t *testing.T) {
	h := Handler(nil, nil, nil)
	for _, path := range []string{"/metrics", "/metrics?format=json", "/trace", "/trace?format=json", "/logs"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("GET %s with nil sinks: code=%d", path, rec.Code)
		}
	}
}

// TestParseSince pins the ?since= forms /logs and /query share: a
// non-negative duration back from now, or an RFC3339 time; nothing else.
func TestParseSince(t *testing.T) {
	now := time.Date(2015, 1, 7, 12, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		in   string
		want time.Time
	}{
		{"5m", now.Add(-5 * time.Minute)},
		{"1h30m", now.Add(-90 * time.Minute)},
		{"0s", now},
		{"2015-01-07T11:00:00Z", time.Date(2015, 1, 7, 11, 0, 0, 0, time.UTC)},
		{"2015-01-07T13:00:00+02:00", time.Date(2015, 1, 7, 11, 0, 0, 0, time.UTC)},
	} {
		got, ok := ParseSince(c.in, now)
		if !ok || !got.Equal(c.want) {
			t.Errorf("ParseSince(%q) = %v, %t; want %v, true", c.in, got, ok, c.want)
		}
	}
	for _, bad := range []string{"", "-5m", "banana", "5", "2015-01-07", "2015-01-07 11:00:00"} {
		if got, ok := ParseSince(bad, now); ok || !got.IsZero() {
			t.Errorf("ParseSince(%q) = %v, %t; want rejected", bad, got, ok)
		}
	}
}
