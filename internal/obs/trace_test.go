package obs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeClock hands out deterministic timestamps one millisecond apart.
func fakeClock() func() time.Time {
	base := time.Date(2017, 6, 5, 12, 0, 0, 0, time.UTC)
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t := base.Add(time.Duration(n) * time.Millisecond)
		n++
		return t
	}
}

func TestSpanParentChildLinkage(t *testing.T) {
	tr := NewTracer(16)
	job := tr.NewSpan("job claim-1", 0)
	task := tr.NewSpan("exec claim-1/0", job.SpanID())
	task.Finish()
	job.Finish()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("buffered %d spans, want 2", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["exec claim-1/0"].Parent != byName["job claim-1"].ID {
		t.Errorf("child parent = %d, want job span ID %d",
			byName["exec claim-1/0"].Parent, byName["job claim-1"].ID)
	}
	if byName["job claim-1"].Parent != 0 {
		t.Errorf("root span parent = %d, want 0", byName["job claim-1"].Parent)
	}
}

func TestSpanFinishIdempotent(t *testing.T) {
	tr := NewTracer(16)
	s := tr.NewSpan("once", 0)
	s.Finish()
	s.Finish()
	if tr.Total() != 1 {
		t.Errorf("double Finish recorded %d spans, want 1", tr.Total())
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.NewSpan("s", 0).Finish()
	}
	if tr.Len() != 4 {
		t.Errorf("ring holds %d spans, want capacity 4", tr.Len())
	}
	if tr.Total() != 10 {
		t.Errorf("total = %d, want 10", tr.Total())
	}
	// The survivors are the newest four (IDs 7..10).
	for _, s := range tr.Spans() {
		if s.ID <= 6 {
			t.Errorf("evicted span %d still buffered", s.ID)
		}
	}
}

func TestTracerDroppedCounterExported(t *testing.T) {
	tr := NewTracer(2)
	reg := NewRegistry()
	tr.NewSpan("pre", 0).Finish()
	tr.NewSpan("pre", 0).Finish()
	tr.NewSpan("pre", 0).Finish() // first overwrite, before instrumentation
	tr.Instrument(reg)
	c := reg.Counter("obs_spans_dropped_total")
	if c.Value() != 1 {
		t.Fatalf("backlog not carried over: counter = %d, want 1", c.Value())
	}
	tr.NewSpan("post", 0).Finish()
	tr.NewSpan("post", 0).Finish()
	if c.Value() != 3 {
		t.Errorf("counter = %d after 3 overwrites, want 3", c.Value())
	}
	// Re-instrumenting (or a nil tracer/registry) must not double count.
	tr.Instrument(reg)
	tr.Instrument(nil)
	(*Tracer)(nil).Instrument(reg)
	if c.Value() != 3 {
		t.Errorf("re-instrument double-counted: %d", c.Value())
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer(128)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				parent := tr.NewSpan("parent", 0)
				child := tr.NewSpan("child", parent.SpanID())
				child.SetAttr("k", "v")
				child.Finish()
				parent.Finish()
			}
		}()
	}
	wg.Wait()
	if tr.Total() != 1600 {
		t.Errorf("total = %d, want 1600", tr.Total())
	}
	if tr.Len() != 128 {
		t.Errorf("len = %d, want full ring 128", tr.Len())
	}
}

// TestWriteChromeTraceGolden locks the trace_event export format: a TD
// job's queue/exec/merge/decode legs under one job span, rendered with
// deterministic timestamps and compared byte-for-byte against testdata.
func TestWriteChromeTraceGolden(t *testing.T) {
	tr := NewTracer(32)
	tr.now = fakeClock()

	job := tr.NewSpan("job claim-1", 0)
	job.SetAttr("reports", "128")
	q := tr.NewSpan("queue claim-1/0", job.SpanID())
	q.Finish()
	exec := tr.NewSpan("exec claim-1/0", job.SpanID())
	exec.SetAttr("worker", "w1")
	exec.Finish()
	merge := tr.NewSpan("merge claim-1", job.SpanID())
	merge.Finish()
	dec := tr.NewSpan("decode claim-1", job.SpanID())
	dec.Finish()
	job.Finish()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace drifted from golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestNewTraceStartsDistributedTrace: a root span from NewTrace carries a
// trace ID ending in its own span ID, SetTrace relinks a span, and both
// are no-ops that read "" on a nil span.
func TestNewTraceStartsDistributedTrace(t *testing.T) {
	tr := NewTracer(8)
	root := tr.NewTrace("job")
	if id := root.TraceID(); id == "" || !strings.HasSuffix(id, fmt.Sprintf("-%d", root.SpanID())) {
		t.Errorf("root trace ID = %q for span %d", id, root.SpanID())
	}
	if other := tr.NewTrace("job 2"); other.TraceID() == root.TraceID() {
		t.Errorf("two traces share ID %q", root.TraceID())
	}
	child := tr.NewSpan("exec", root.SpanID())
	child.SetTrace(root.TraceID())
	if child.TraceID() != root.TraceID() {
		t.Errorf("child trace = %q, want %q", child.TraceID(), root.TraceID())
	}
	var nilSpan *Span
	nilSpan.SetTrace("x")
	if nilSpan.TraceID() != "" {
		t.Error("nil span has a trace ID")
	}
	var nilTracer *Tracer
	if nilTracer.NewTrace("job") != nil {
		t.Error("nil tracer opened a span")
	}
}

// TestIngestAssignsIDAndClampsEnd: an ingested remote span without an ID
// gets a fresh one that no local span shares, and one that ends before
// it starts is clamped to zero length.
func TestIngestAssignsIDAndClampsEnd(t *testing.T) {
	tr := NewTracer(8)
	local := tr.NewSpan("local", 0)
	local.Finish()
	start := time.Date(2017, 6, 5, 12, 0, 0, 0, time.UTC)
	tr.Ingest(Span{Name: "remote", Start: start, End: start.Add(-time.Second)})
	tr.Ingest(Span{ID: 99, Name: "kept", Start: start, End: start.Add(time.Second)})

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("buffered %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	remote, kept := byName["remote"], byName["kept"]
	if remote.ID == 0 || remote.ID == local.SpanID() {
		t.Errorf("ingested span ID = %d, local span ID = %d", remote.ID, local.SpanID())
	}
	if !remote.End.Equal(remote.Start) {
		t.Errorf("ingested span not clamped: %v .. %v", remote.Start, remote.End)
	}
	if kept.ID != 99 || kept.End.Sub(kept.Start) != time.Second {
		t.Errorf("span with an ID = %+v, want ID 99 lasting 1s", kept)
	}
}
