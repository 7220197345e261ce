package tsdb

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
)

var t0 = time.Unix(1_700_000_000, 0)

// Append records one sample. name may carry a `{k="v"}` label block
// (parsed into the series' label set); labels adds or overrides pairs on
// top of it. Nil-safe.
func (s *Store) Append(name string, labels map[string]string, t time.Time, v float64) {
	if s == nil {
		return
	}
	base, parsed := splitName(name)
	if len(labels) > 0 {
		if parsed == nil {
			parsed = make(map[string]string, len(labels))
		}
		for k, val := range labels {
			parsed[k] = val
		}
	}
	s.append(base, parsed, t.UnixMilli(), v)
}

func TestAppendAndQuery(t *testing.T) {
	s := New(8)
	for i := 0; i < 5; i++ {
		s.Append("reqs_total", map[string]string{"host": "a"}, t0.Add(time.Duration(i)*time.Second), float64(i))
	}
	s.Append("reqs_total", map[string]string{"host": "b"}, t0, 99)
	s.Append("other", nil, t0, 1)

	got := s.Run(Query{Name: "reqs_total"}, t0.Add(10*time.Second))
	if len(got) != 2 {
		t.Fatalf("want 2 series, got %d: %+v", len(got), got)
	}
	if got[0].Labels["host"] != "a" || len(got[0].Points) != 5 {
		t.Errorf("series a = %+v", got[0])
	}
	if got[1].Labels["host"] != "b" || got[1].Points[0].V != 99 {
		t.Errorf("series b = %+v", got[1])
	}

	got = s.Run(Query{Name: "reqs_total", Matchers: map[string]string{"host": "b"}}, t0)
	if len(got) != 1 || got[0].Labels["host"] != "b" {
		t.Errorf("matcher query = %+v", got)
	}
}

func TestRingRetentionBound(t *testing.T) {
	s := New(4)
	for i := 0; i < 10; i++ {
		s.Append("m", nil, t0.Add(time.Duration(i)*time.Second), float64(i))
	}
	got := s.Run(Query{Name: "m"}, t0.Add(time.Minute))
	if len(got) != 1 || len(got[0].Points) != 4 {
		t.Fatalf("want 4 retained points, got %+v", got)
	}
	// Oldest first, and only the newest 4 survive.
	for i, p := range got[0].Points {
		if p.V != float64(6+i) {
			t.Errorf("point %d = %+v, want V=%d", i, p, 6+i)
		}
	}
}

// TestConfigurableCapacityRetention covers a capacity set through New: a
// capacity above the default retains exactly that many points per
// series, and New(0) falls back to DefaultCapacity.
func TestConfigurableCapacityRetention(t *testing.T) {
	capacity := DefaultCapacity + 100
	s := New(capacity)
	n := capacity + 50
	for i := 0; i < n; i++ {
		s.Append("m", nil, t0.Add(time.Duration(i)*time.Second), float64(i))
	}
	got := s.Run(Query{Name: "m", Limit: MaxQueryLimit}, t0.Add(time.Duration(n)*time.Second))
	if len(got) != 1 || len(got[0].Points) != capacity {
		t.Fatalf("want %d retained points, got %d", capacity, len(got[0].Points))
	}
	// The survivors are the newest `capacity` samples, oldest first.
	if first := got[0].Points[0].V; first != float64(n-capacity) {
		t.Errorf("oldest retained V = %v, want %d", first, n-capacity)
	}
	if last := got[0].Points[capacity-1].V; last != float64(n-1) {
		t.Errorf("newest retained V = %v, want %d", last, n-1)
	}

	def := New(0)
	for i := 0; i < DefaultCapacity+10; i++ {
		def.Append("m", nil, t0.Add(time.Duration(i)*time.Second), float64(i))
	}
	got = def.Run(Query{Name: "m", Limit: MaxQueryLimit}, t0.Add(time.Hour))
	if len(got) != 1 || len(got[0].Points) != DefaultCapacity {
		t.Fatalf("New(0) retained %d points, want DefaultCapacity %d", len(got[0].Points), DefaultCapacity)
	}
}

func TestQuerySinceStepLimit(t *testing.T) {
	s := New(64)
	for i := 0; i < 30; i++ {
		s.Append("m", nil, t0.Add(time.Duration(i)*time.Second), float64(i))
	}
	now := t0.Add(30 * time.Second)

	got := s.Run(Query{Name: "m", Since: 10 * time.Second}, now)
	if n := len(got[0].Points); n != 10 {
		t.Errorf("since=10s kept %d points, want 10", n)
	}
	got = s.Run(Query{Name: "m", Step: 10 * time.Second}, now)
	if n := len(got[0].Points); n > 4 {
		t.Errorf("step=10s kept %d points, want <= 4", n)
	}
	// Downsampling keeps the LAST point of each bucket.
	last := got[0].Points[len(got[0].Points)-1]
	if last.V != 29 {
		t.Errorf("last downsampled point = %+v, want V=29", last)
	}
	got = s.Run(Query{Name: "m", Limit: 3}, now)
	if n := len(got[0].Points); n != 3 {
		t.Errorf("limit=3 kept %d points", n)
	}
	if got[0].Points[2].V != 29 {
		t.Errorf("limit should keep newest points: %+v", got[0].Points)
	}
}

func TestScrapeRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c_total").Add(7)
	reg.Gauge(`g{worker="w-1"}`).Set(3)
	reg.Histogram("h_ms", []float64{1, 10}).Observe(5)

	s := New(8)
	s.Ingest("master", reg.Snapshot(), t0)

	if got := s.Run(Query{Name: "c_total"}, t0); len(got) != 1 || got[0].Points[0].V != 7 || got[0].Labels["host"] != "master" {
		t.Errorf("scraped counter = %+v", got)
	}
	if got := s.Run(Query{Name: "g"}, t0); len(got) != 1 || got[0].Labels["worker"] != "w-1" {
		t.Errorf("scraped labelled gauge = %+v", got)
	}
	for _, suffix := range []string{"_count", "_sum", "_p50", "_p90", "_p99"} {
		if got := s.Run(Query{Name: "h_ms" + suffix}, t0); len(got) != 1 {
			t.Errorf("missing histogram series h_ms%s", suffix)
		}
	}
}

// TestIngestShipsAppendPerShip: a worker's ships, each a snapshot of its
// registry, land as one point per series per ship under the worker's
// host label — cumulative counters, and a gauge that did not change
// still gets its point.
func TestIngestShipsAppendPerShip(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("worker_tasks_total")
	reg.Gauge("worker_goroutines").Set(4)
	h := reg.Histogram("exec_ms", []float64{1, 10})
	c.Add(3)
	h.Observe(5)

	s := New(16)
	s.Ingest("w-1", reg.Snapshot(), t0)
	c.Add(2)
	h.Observe(0.5)
	s.Ingest("w-1", reg.Snapshot(), t0.Add(time.Second))

	for name, want := range map[string][]float64{
		"worker_tasks_total": {3, 5},
		"worker_goroutines":  {4, 4},
		"exec_ms_count":      {1, 2},
	} {
		got := s.Run(Query{Name: name}, t0.Add(time.Minute))
		if len(got) != 1 || got[0].Labels["host"] != "w-1" || len(got[0].Points) != len(want) {
			t.Fatalf("%s = %+v, want one w-1 series with %d points", name, got, len(want))
		}
		for i, p := range got[0].Points {
			if p.V != want[i] {
				t.Errorf("%s points = %+v, want %v", name, got[0].Points, want)
				break
			}
		}
	}
	if got := s.Run(Query{Name: "exec_ms_p50"}, t0.Add(time.Minute)); len(got) != 1 || got[0].Points[1].V <= 0 {
		t.Errorf("hist p50 series = %+v", got)
	}
}

func TestHandlerQueryEndpoint(t *testing.T) {
	s := New(8)
	s.Append("m", map[string]string{"host": "a"}, time.Now(), 1)
	s.Append("m", map[string]string{"host": "b"}, time.Now(), 2)
	h := s.Handler()

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	rec := get("/?series=m")
	var out QueryResult
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Series) != 2 {
		t.Fatalf("query: err=%v body=%s", err, rec.Body.String())
	}
	rec = get("/?series=m&label=host=b")
	out = QueryResult{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Series) != 1 || out.Series[0].Labels["host"] != "b" {
		t.Fatalf("label query: err=%v body=%s", err, rec.Body.String())
	}
	// Discovery mode.
	rec = get("/")
	out = QueryResult{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Names) != 1 || out.Names[0] != "m" {
		t.Fatalf("names: err=%v body=%s", err, rec.Body.String())
	}
	// since takes a duration or an RFC3339 time, as /logs does.
	for _, since := range []string{"1h", time.Now().Add(-time.Hour).Format(time.RFC3339)} {
		rec = get("/?series=m&since=" + since)
		out = QueryResult{}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Series) != 2 {
			t.Errorf("since=%s: code=%d body=%s", since, rec.Code, rec.Body.String())
		}
	}
	for _, bad := range []string{"/?series=m&since=banana", "/?series=m&since=-5m", "/?series=m&step=-1s", "/?series=m&limit=x", "/?series=m&label=nokey"} {
		if rec := get(bad); rec.Code != 400 {
			t.Errorf("GET %s: code=%d, want 400", bad, rec.Code)
		}
	}
}

func TestHandlerLimitClamped(t *testing.T) {
	s := New(8)
	s.Append("m", nil, time.Now(), 1)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/?series=m&limit=99999999", nil))
	if rec.Code != 200 {
		t.Fatalf("clamped limit: code=%d", rec.Code)
	}
}

func BenchmarkTelemetryShipApply(b *testing.B) {
	reg := obs.NewRegistry()
	for i := 0; i < 8; i++ {
		reg.Counter(fmt.Sprintf("c%d", i)).Add(int64(i))
		reg.Histogram(fmt.Sprintf("h%d", i), nil).Observe(float64(i))
	}
	s := New(256)
	s.Ingest("w", reg.Snapshot(), t0)
	hot := reg.Counter("c0")
	h := reg.Histogram("h0", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hot.Inc()
		h.Observe(1)
		s.Ingest("w", reg.Snapshot(), t0)
	}
}

func BenchmarkTSDBAppend(b *testing.B) {
	s := New(1024)
	labels := map[string]string{"host": "w-1"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append("m_total", labels, t0, float64(i))
	}
}
