package workqueue

import (
	"context"
	"sync"
	"time"
)

// TraceContext is the causal context a task carries across the wire: the
// distributed trace ID minted by the submitter (the TD job's root span)
// and the span the remote work should nest under. The master rewrites
// ParentSpanID to the task's exec span before shipping the task, so a
// worker's stage spans land directly beneath the master-side exec leg of
// the same trace. A nil TraceContext (old submitters, telemetry off)
// keeps the pre-tracing protocol: workers then record no spans.
type TraceContext struct {
	TraceID      string `json:"trace_id"`
	ParentSpanID int64  `json:"parent_span_id,omitempty"`
}

// RemoteSpan is one finished worker-side stage span in wire form. Start
// is on the worker's clock; the master offset-adjusts it with its
// RTT-based clock-skew estimate before ingesting the span into its
// tracer ring. Parent is a master-side span ID (from TraceContext), so
// no ID remapping is needed on ingest.
type RemoteSpan struct {
	TraceID string `json:"trace_id,omitempty"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	TaskID  string `json:"task_id,omitempty"`
	// StartUnixNano / DurNs are the span's start (worker clock, unix
	// nanoseconds) and duration.
	StartUnixNano int64 `json:"start_unix_ns"`
	DurNs         int64 `json:"dur_ns"`
}

// TaskTrace collects the stage spans of one traced task execution on a
// worker. The worker seeds it from the task's TraceContext and injects
// it into the executor's context; executors mark their decode/encode
// stages through StartStageSpan. All methods are nil-safe, so executors
// instrument unconditionally and untraced tasks cost one nil check.
type TaskTrace struct {
	traceID string
	parent  int64
	span    int64 // Task.Span
	taskID  string
	spans   spanBuffer
}

func newTaskTrace(tc *TraceContext, taskID string, span int64) *TaskTrace {
	if tc == nil || tc.TraceID == "" {
		return nil
	}
	return &TaskTrace{traceID: tc.TraceID, parent: tc.ParentSpanID, span: span, taskID: taskID}
}

// add records one finished stage span. Nil-safe.
func (tt *TaskTrace) add(name string, start, end time.Time) {
	if tt == nil {
		return
	}
	tt.spans.add(RemoteSpan{
		TraceID:       tt.traceID,
		Parent:        tt.parent,
		Name:          name,
		TaskID:        tt.taskID,
		StartUnixNano: start.UnixNano(),
		DurNs:         int64(end.Sub(start)),
	})
}

// take drains the collected spans.
func (tt *TaskTrace) take() []RemoteSpan {
	if tt == nil {
		return nil
	}
	return tt.spans.drain()
}

type taskTraceKey struct{}

// withTaskTrace injects tt into the executor's context.
func withTaskTrace(ctx context.Context, tt *TaskTrace) context.Context {
	if tt == nil {
		return ctx
	}
	return context.WithValue(ctx, taskTraceKey{}, tt)
}

// taskTraceFrom recovers the task's trace collector (nil when the task
// is untraced).
func taskTraceFrom(ctx context.Context) *TaskTrace {
	tt, _ := ctx.Value(taskTraceKey{}).(*TaskTrace)
	return tt
}

// TaskSpan is the submitter-side span (Task.Span) of the traced task an
// executor is running, for parenting its own probes; 0 when untraced.
func TaskSpan(ctx context.Context) int64 {
	if tt := taskTraceFrom(ctx); tt != nil {
		return tt.span
	}
	return 0
}

// StageSpan is one in-progress executor stage measurement. Finish is
// idempotent and nil-safe.
type StageSpan struct {
	tt    *TaskTrace
	name  string
	start time.Time
	done  bool
}

// StartStageSpan opens a stage span (e.g. StageDecode, StageEncode) on
// the traced task carried by ctx. For untraced tasks it returns nil,
// whose Finish no-ops — executors call it unconditionally, mirroring how
// StageError tags the same stages on failure.
func StartStageSpan(ctx context.Context, stage string) *StageSpan {
	tt := taskTraceFrom(ctx)
	if tt == nil {
		return nil
	}
	return &StageSpan{tt: tt, name: stage, start: time.Now()}
}

// Finish records the stage span. Safe on nil and idempotent.
func (s *StageSpan) Finish() {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.tt.add(s.name, s.start, time.Now())
}

// spanBuffer accumulates finished remote spans: one task's stages in its
// TaskTrace, and on the worker between outgoing messages, where a task's
// recv/decode/exec/encode spans ship with its result, while its send span
// (finished only after the result is on the wire) ships with the next
// result, heartbeat or the final flush at shutdown. Shared by the task
// loop and the heartbeat goroutine.
type spanBuffer struct {
	mu    sync.Mutex
	spans []RemoteSpan
}

func (b *spanBuffer) add(spans ...RemoteSpan) {
	if len(spans) == 0 {
		return
	}
	b.mu.Lock()
	b.spans = append(b.spans, spans...)
	b.mu.Unlock()
}

func (b *spanBuffer) drain() []RemoteSpan {
	b.mu.Lock()
	out := b.spans
	b.spans = nil
	b.mu.Unlock()
	return out
}
