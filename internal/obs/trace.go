package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed operation. Spans form trees through Parent; the DTM
// gives each TD job a root span whose children are the job's task queue /
// execute legs and the final merge + decode.
type Span struct {
	ID     int64 `json:"id"`
	Parent int64 `json:"parent,omitempty"`
	// Trace is the distributed trace ID this span belongs to. It is set on
	// root spans by NewTrace and propagated across process boundaries by
	// the workqueue wire protocol; empty for purely local spans.
	Trace string `json:"trace,omitempty"`
	// Proc names the process the span was measured in. Empty means this
	// process (the master); remote spans ingested from workers carry the
	// worker ID, which the Chrome export maps onto its own process lane.
	Proc  string            `json:"proc,omitempty"`
	Name  string            `json:"name"`
	Attrs map[string]string `json:"attrs,omitempty"`
	Start time.Time         `json:"start"`
	End   time.Time         `json:"end"`

	tr *Tracer
	// ended guards double-Finish; a plain int32 driven by the atomic
	// package so Span stays copyable (the tracer rings finished spans
	// by value).
	ended int32
}

// SpanID returns the span's ID, or 0 for a nil span — the value callers
// pass as a child's parent without nil checks.
func (s *Span) SpanID() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// TraceID returns the span's distributed trace ID ("" for a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.Trace
}

// SetTrace links the span into a distributed trace. No-op on nil.
func (s *Span) SetTrace(id string) {
	if s == nil {
		return
	}
	s.Trace = id
}

// SetAttr attaches a key/value to the span. No-op on nil.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 2)
	}
	s.Attrs[k] = v
}

// Finish stamps the end time and records the span into its tracer's ring
// buffer. Safe on nil and idempotent.
func (s *Span) Finish() {
	if s == nil || s.tr == nil || !atomic.CompareAndSwapInt32(&s.ended, 0, 1) {
		return
	}
	s.End = s.tr.now()
	s.tr.record(*s)
}

// Tracer records finished spans into a fixed-capacity ring buffer; the
// newest spans win. A nil *Tracer is valid and disables tracing.
type Tracer struct {
	nextID atomic.Int64
	// now is a test hook for deterministic timestamps.
	now func() time.Time

	mu   sync.Mutex
	ring Ring[Span]
	// cDropped, when instrumented, exports overwrites as
	// obs_spans_dropped_total — ring overflow is otherwise silent.
	cDropped *Counter
}

// NewTracer creates a tracer keeping the most recent capacity spans
// (default 4096 when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{now: time.Now, ring: NewRing[Span](capacity)}
}

// NewSpan opens a span with an explicit parent ID (0 = root), e.g. the
// workqueue master linking task spans under a job span received over the
// wire. With a nil tracer it returns nil, and a nil span's methods all
// no-op.
func (t *Tracer) NewSpan(name string, parent int64) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		ID:     t.nextID.Add(1),
		Parent: parent,
		Name:   name,
		Start:  t.now(),
		tr:     t,
	}
}

// traceNonce makes trace IDs unique across processes: two masters (or a
// master and a worker) minting IDs concurrently must not collide when
// their spans are merged into one timeline.
var traceNonce = func() string {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		binary.LittleEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}()

// NewTrace opens a root span that starts a new distributed trace: the
// span carries a process-unique trace ID which child spans — local or
// remote, via the workqueue TraceContext — inherit. Nil-safe.
func (t *Tracer) NewTrace(name string) *Span {
	s := t.NewSpan(name, 0)
	if s != nil {
		s.Trace = fmt.Sprintf("%s-%d", traceNonce, s.ID)
	}
	return s
}

// Ingest records an externally finished span — typically a worker-side
// stage span shipped over the wire, already offset-adjusted onto this
// process's clock. A zero ID is assigned a fresh one so ingested spans
// never collide with local spans; a non-positive duration is clamped.
// Nil-safe.
func (t *Tracer) Ingest(s Span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.nextID.Add(1)
	}
	if s.End.Before(s.Start) {
		s.End = s.Start
	}
	t.record(s)
}

// record appends a finished span to the ring.
func (t *Tracer) record(s Span) {
	s.tr = nil
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ring.Push(s) {
		t.cDropped.Inc()
	}
}

// Instrument exports the tracer's overflow count to reg as
// obs_spans_dropped_total, so a ring quietly evicting spans shows up on
// the metrics endpoint. Counts dropped before instrumentation carry
// over. Nil-safe on both sides.
func (t *Tracer) Instrument(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cDropped != nil {
		return
	}
	t.cDropped = reg.Counter("obs_spans_dropped_total")
	t.cDropped.Add(int64(t.ring.Overwrites()))
}

// Len reports how many spans are currently buffered (0 on nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Len()
}

// Total reports how many spans were ever recorded, including those the
// ring has evicted.
func (t *Tracer) Total() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Pushes()
}

// Spans returns the buffered spans ordered by start time. Safe on nil.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := t.ring.Ordered()
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// WriteJSON dumps the buffered spans as a JSON array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	spans := t.Spans()
	if spans == nil {
		spans = []Span{}
	}
	return enc.Encode(spans)
}
