package workqueue

import (
	"context"
	"testing"
)

// benchTracedTask is a representative dispatched task, carrying its
// distributed-trace context.
func benchTracedTask() Task {
	return Task{
		ID: "claim-17/3", JobID: "claim-17",
		Payload: []byte(`{"claim":"claim-17","reports":[{"s":"src-1","t":"2017-04-01T10:00:00Z"}]}`),
		Span:    91,
		Trace:   &TraceContext{TraceID: "f3a9b2c1-42", ParentSpanID: 91},
	}
}

// BenchmarkStageSpanTraced measures a worker recording one stage span on
// a traced task: context lookup, clock reads and the buffer append.
func BenchmarkStageSpanTraced(b *testing.B) {
	tt := newTaskTrace(&TraceContext{TraceID: "f3a9b2c1-42", ParentSpanID: 91}, "claim-17/3", 0)
	ctx := withTaskTrace(context.Background(), tt)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		StartStageSpan(ctx, StageExec).Finish()
		if i%1024 == 0 {
			tt.take() // keep the span slice from growing unboundedly
		}
	}
}

// BenchmarkStageSpanUntraced measures the same call on an untraced task —
// the tracing-off fast path every execution pays.
func BenchmarkStageSpanUntraced(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		StartStageSpan(ctx, StageExec).Finish()
	}
}
