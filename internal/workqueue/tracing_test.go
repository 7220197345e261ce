package workqueue

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// TestTaskTraceContextRoundTrip: the trace context and the master's
// frame send stamp survive the wire on a task frame.
func TestTaskTraceContextRoundTrip(t *testing.T) {
	a, b := pipePair()
	ca, cb := newCodec(a), newCodec(b)
	defer func() { _ = ca.close() }()
	go func() {
		_ = ca.send(message{Type: msgTaskBatch, SentUnixNano: 12345, Tasks: []Task{{
			ID: "t1", JobID: "j",
			Trace: &TraceContext{TraceID: "abc-1", ParentSpanID: 7},
		}}})
	}()
	m, err := cb.recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tasks) != 1 || m.Tasks[0].Trace == nil {
		t.Fatalf("trace context lost: %+v", m.Tasks)
	}
	if tc := m.Tasks[0].Trace; tc.TraceID != "abc-1" || tc.ParentSpanID != 7 {
		t.Errorf("trace context = %+v", tc)
	}
	if m.SentUnixNano != 12345 {
		t.Errorf("sent stamp = %d, want 12345", m.SentUnixNano)
	}
}

// TestRemoteSpanRoundTrip: worker stage spans and the clock stamps
// survive the wire on a result message.
func TestRemoteSpanRoundTrip(t *testing.T) {
	a, b := pipePair()
	ca, cb := newCodec(a), newCodec(b)
	defer func() { _ = ca.close() }()
	go func() {
		_ = ca.send(message{
			Type:         msgResultBatch,
			Results:      []Result{{TaskID: "t1", WorkerID: "w"}},
			SentUnixNano: 500,
			TaskDelayNs:  900,
			Spans: []RemoteSpan{
				{TraceID: "abc-1", Parent: 7, Name: StageExec, TaskID: "t1", StartUnixNano: 100, DurNs: 50},
				{TraceID: "abc-1", Parent: 7, Name: StageSend, TaskID: "t0", StartUnixNano: 80, DurNs: 5},
			},
		})
	}()
	m, err := cb.recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.SentUnixNano != 500 || m.TaskDelayNs != 900 {
		t.Errorf("clock stamps = %d/%d, want 500/900", m.SentUnixNano, m.TaskDelayNs)
	}
	if len(m.Spans) != 2 {
		t.Fatalf("spans = %+v, want 2", m.Spans)
	}
	if s := m.Spans[0]; s.TraceID != "abc-1" || s.Parent != 7 || s.Name != StageExec ||
		s.TaskID != "t1" || s.StartUnixNano != 100 || s.DurNs != 50 {
		t.Errorf("span round trip = %+v", s)
	}
}

// TestUntracedMessagesTraceOff: an untraced exchange — a task with no
// trace context, a result with no spans or clock stamps — decodes to zero
// values, and the worker-side trace helpers treat them as "tracing off"
// rather than failing.
func TestUntracedMessagesTraceOff(t *testing.T) {
	a, b := pipePair()
	ca, cb := newCodec(a), newCodec(b)
	defer func() { _ = ca.close() }()
	go func() {
		_ = ca.send(message{Type: msgTaskBatch, Tasks: []Task{{ID: "t", JobID: "j", Payload: []byte("x")}}})
		_ = ca.send(message{Type: msgResultBatch, Results: []Result{{TaskID: "t", WorkerID: "w", Elapsed: 5}}})
	}()
	m, err := cb.recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tasks) != 1 || m.Tasks[0].Trace != nil || m.SentUnixNano != 0 {
		t.Errorf("untraced task gained trace state: %+v", m)
	}
	m, err = cb.recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Spans != nil || m.SentUnixNano != 0 || m.TaskDelayNs != 0 {
		t.Errorf("untraced result gained trace state: %+v", m)
	}

	// A nil trace context means no TaskTrace, and every helper no-ops.
	if tt := newTaskTrace(nil, "t", 0); tt != nil {
		t.Errorf("newTaskTrace(nil) = %v, want nil", tt)
	}
	if tt := newTaskTrace(&TraceContext{}, "t", 0); tt != nil {
		t.Errorf("newTaskTrace(empty trace id) = %v, want nil", tt)
	}
	var tt *TaskTrace
	tt.add("x", time.Now(), time.Now())
	if got := tt.take(); got != nil {
		t.Errorf("nil TaskTrace take = %v", got)
	}
	s := StartStageSpan(context.Background(), StageDecode)
	if s != nil {
		t.Errorf("StartStageSpan without trace = %v, want nil", s)
	}
	s.Finish() // must not panic
}

// TestStageSpanRecordsOnTrace: StartStageSpan on a traced context lands a
// named span carrying the wire-provided parent.
func TestStageSpanRecordsOnTrace(t *testing.T) {
	tt := newTaskTrace(&TraceContext{TraceID: "abc", ParentSpanID: 42}, "t9", 7)
	ctx := withTaskTrace(context.Background(), tt)
	if got := TaskSpan(ctx); got != 7 {
		t.Errorf("TaskSpan = %d, want the task's submitter-side span 7", got)
	}
	if got := TaskSpan(context.Background()); got != 0 {
		t.Errorf("TaskSpan of an untraced task = %d, want 0", got)
	}
	sp := StartStageSpan(ctx, StageEncode)
	sp.Finish()
	sp.Finish() // idempotent
	spans := tt.take()
	if len(spans) != 1 {
		t.Fatalf("spans = %+v, want 1", spans)
	}
	got := spans[0]
	if got.Name != StageEncode || got.TraceID != "abc" || got.Parent != 42 || got.TaskID != "t9" {
		t.Errorf("stage span = %+v", got)
	}
	if got.DurNs < 0 {
		t.Errorf("negative duration: %+v", got)
	}
}

// TestAssignNeverQueuedTaskDoesNotBreakTracing: regression for the
// unguarded taskSpans lookup in trackInflight. A task that reaches
// assignment without ever being marked queued (pushed straight into the
// scheduler, bypassing Submit) has no open queue span; assigning it must
// still work and produce a finished exec span.
func TestAssignNeverQueuedTaskDoesNotBreakTracing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := obs.NewTracer(64)
	m := NewMaster(MasterConfig{ResultBuffer: 8, Tracer: tr})
	p := NewPool(m, echoExec)
	defer p.Close()
	p.Resize(ctx, 1)

	// Bypass Submit: the scheduler sees the task, markQueuedLocked never
	// ran, so taskSpans has no entry when trackInflight looks it up.
	m.sched.push(Task{ID: "ghost", JobID: "j", Payload: []byte("x")})

	r := collect(t, m, 1)[0]
	if r.TaskID != "ghost" || r.Err != "" {
		t.Fatalf("result = %+v", r)
	}
	found := false
	for _, s := range tr.Spans() {
		if s.Name == "exec ghost" {
			found = true
		}
	}
	if !found {
		t.Errorf("no exec span recorded for never-queued task; spans: %+v", tr.Spans())
	}
}

// TestClockSkewEstimate: the NTP-style two-leg derivation. d1 (worker→
// master observed on the master clock) = transit − skew; d2 (master→
// worker observed on the worker clock) = transit + skew.
func TestClockSkewEstimate(t *testing.T) {
	cl := newCluster(nil, 0, nil)
	if err := cl.attach("w", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Worker clock 5ms ahead, symmetric 10ms transit:
	// d1 = 10 − 5 = 5ms, d2 = 10 + 5 = 15ms.
	d1 := int64(5 * time.Millisecond)
	d2 := int64(15 * time.Millisecond)
	cl.observeClock("w", d1, d2)
	wantAdj := int64(-5 * time.Millisecond) // subtract the skew
	if got := cl.clockAdjustNs("w"); got != wantAdj {
		t.Errorf("clockAdjustNs = %d, want %d", got, wantAdj)
	}
	h := cl.health()[0]
	if h.ClockSkewMs != 5 {
		t.Errorf("ClockSkewMs = %v, want 5", h.ClockSkewMs)
	}
	if h.RTTMs != 20 {
		t.Errorf("RTTMs = %v, want 20", h.RTTMs)
	}

	// One leg alone must not produce an estimate.
	cl2 := newCluster(nil, 0, nil)
	if err := cl2.attach("w", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	cl2.observeClock("w", d1, 0)
	if got := cl2.clockAdjustNs("w"); got != 0 {
		t.Errorf("one-leg clockAdjustNs = %d, want 0", got)
	}
	if h := cl2.health()[0]; h.ClockSkewMs != 0 || h.RTTMs != 0 {
		t.Errorf("one-leg health = skew %v rtt %v, want zeros", h.ClockSkewMs, h.RTTMs)
	}
}

// skewConn shifts the clock stamps of every frame written through it by
// delta, as the chaos layer's skew= fault does (one codec send is one
// Write of one whole frame).
type skewConn struct {
	net.Conn
	delta int64
}

func (c skewConn) Write(p []byte) (int, error) {
	if _, err := c.Conn.Write(ShiftBinaryStamps(p, c.delta)); err != nil {
		return 0, err
	}
	return len(p), nil
}

// TestWorkerStampsLandOnMasterClock runs a worker whose clock reads an
// hour ahead of the master's: every stamp it sends is shifted forward
// and every stamp it receives back, so both legs of the skew estimate see
// it. The connection reader must shift the stage spans it ingests and the
// flight-dump events a gather collects back onto the master clock; an
// unshifted stamp lands an hour off.
func TestWorkerStampsLandOnMasterClock(t *testing.T) {
	const skew = int64(time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := time.Now()
	tr := obs.NewTracer(0)
	m := NewMaster(MasterConfig{ResultBuffer: 8, Tracer: tr, FlightRec: mustRecorder(t)})
	defer m.Shutdown()
	wrec, err := flightrec.NewRecorder(flightrec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mconn, wconn := pipePair()
	go func() { _ = m.HandleWorker(ctx, skewConn{mconn, -skew}) }()
	go func() {
		w := &Worker{ID: "ahead", Exec: echoExec, FlightRec: wrec}
		_ = w.Run(ctx, skewConn{wconn, skew})
	}()
	for i := 0; i < 3; i++ {
		if err := m.Submit(Task{ID: fmt.Sprintf("t%d", i), JobID: "j", Payload: []byte("x"), Trace: &TraceContext{TraceID: "tr"}}); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, m, 3)
	hosts := m.gather(flightrec.TrigManual, "skew test", time.Minute)
	after := time.Now()

	// The estimate is off by half the difference of the two transits.
	lo, hi := before.Add(-time.Second).UnixNano(), after.Add(time.Second).UnixNano()
	spans := 0
	for _, s := range tr.Spans() {
		if s.Proc != "ahead" {
			continue
		}
		spans++
		if at := s.Start.UnixNano(); at < lo || at > hi {
			t.Errorf("worker span %q starts %v from the master clock's run window", s.Name, time.Duration(at-lo))
		}
	}
	events := 0
	for _, h := range hosts {
		for _, e := range h.Events {
			events++
			if e.T0 < lo || e.T0 > hi {
				t.Errorf("worker %s event %s at %v from the master clock's run window", h.Host, e.Probe, time.Duration(e.T0-lo))
			}
		}
	}
	if spans == 0 || events == 0 {
		t.Fatalf("%d worker spans and %d dump events reached the master, want some of each", spans, events)
	}
}

// TestWorkerMirrorsStageSpans: a worker with a Tracer keeps a copy of
// the stage spans it ships, for its own process's /trace endpoint.
func TestWorkerMirrorsStageSpans(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{ResultBuffer: 4})
	defer m.Shutdown()
	local := obs.NewTracer(0)
	mconn, wconn := pipePair()
	go func() { _ = m.HandleWorker(ctx, mconn) }()
	go func() { _ = (&Worker{ID: "w", Exec: echoExec, Tracer: local}).Run(ctx, wconn) }()
	if err := m.Submit(Task{ID: "t", JobID: "j", Payload: []byte("x"), Trace: &TraceContext{TraceID: "tr"}}); err != nil {
		t.Fatal(err)
	}
	collect(t, m, 1)
	names := map[string]bool{}
	for _, s := range local.Spans() {
		names[s.Name] = true
	}
	if !names[StageRecv] || !names[StageExec] {
		t.Fatalf("worker tracer holds %v, want its recv and exec stage spans", names)
	}
}

// TestTransferEWMA: the measured transfer folds with the documented
// smoothing factor and surfaces in WorkerHealth.
func TestTransferEWMA(t *testing.T) {
	cl := newCluster(nil, 0, nil)
	if err := cl.attach("w", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	cl.taskFinished("w", Result{}, 10*time.Millisecond, nil)
	if h := cl.health()[0]; h.EWMATransferMs != 10 {
		t.Errorf("first transfer EWMA = %v, want 10", h.EWMATransferMs)
	}
	cl.taskFinished("w", Result{}, 20*time.Millisecond, nil)
	want := ewmaTransferAlpha*20 + (1-ewmaTransferAlpha)*10
	if h := cl.health()[0]; h.EWMATransferMs != want {
		t.Errorf("second transfer EWMA = %v, want %v", h.EWMATransferMs, want)
	}
}

// TestDistributedTraceEndToEnd is the acceptance scenario: a master and
// two workers produce ONE trace in the master's tracer where a task shows
// the master-side queue/exec spans and the worker-side recv, decode,
// exec, encode and send spans, all under the job's trace ID, with worker
// spans on their own process lanes in the Chrome export.
func TestDistributedTraceEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := obs.NewTracer(0)
	m := NewMaster(MasterConfig{ResultBuffer: 64, Tracer: tr})

	exec := func(c context.Context, payload []byte) ([]byte, error) {
		decode := StartStageSpan(c, StageDecode)
		var v map[string]int
		if err := json.Unmarshal(payload, &v); err != nil {
			return nil, StageError(StageDecode, err)
		}
		decode.Finish()
		time.Sleep(2 * time.Millisecond)
		encode := StartStageSpan(c, StageEncode)
		out, err := json.Marshal(v)
		encode.Finish()
		return out, err
	}
	for _, id := range []string{"wA", "wB"} {
		mconn, wconn := pipePair()
		go func() { _ = m.HandleWorker(ctx, mconn) }()
		go func(id string) {
			w := &Worker{ID: id, Exec: exec}
			_ = w.Run(ctx, wconn)
		}(id)
	}
	waitFor(t, func() bool { return m.WorkerCount() == 2 }, "workers to attach")

	root := tr.NewTrace("job j")
	tc := &TraceContext{TraceID: root.TraceID(), ParentSpanID: root.SpanID()}
	const n = 8
	for i := 0; i < n; i++ {
		err := m.Submit(Task{
			ID: fmt.Sprintf("t%d", i), JobID: "j",
			Payload: []byte(`{"n":1}`),
			Span:    root.SpanID(),
			Trace:   tc,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	results := collect(t, m, n)
	byWorker := map[string]int{}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("task failed: %+v", r)
		}
		byWorker[r.WorkerID]++
	}
	if len(byWorker) != 2 {
		t.Fatalf("tasks not spread across both workers: %v", byWorker)
	}
	root.Finish()
	// Shutdown waits for the workers' final span flush (their last send
	// spans ride on a closing heartbeat).
	m.Shutdown()

	// Index the merged timeline: every span must be in the one trace.
	spans := tr.Spans()
	byID := map[int64]obs.Span{}
	type key struct{ name, proc string }
	seen := map[key][]obs.Span{}
	for _, s := range spans {
		if s.Trace != root.TraceID() {
			t.Errorf("span %q in trace %q, want %q", s.Name, s.Trace, root.TraceID())
		}
		byID[s.ID] = s
		seen[key{s.Name, s.Proc}] = append(seen[key{s.Name, s.Proc}], s)
	}

	// Pick one completed task per worker and check the full stage ladder.
	for workerID := range byWorker {
		var execSpan *obs.Span
		for _, s := range spans {
			if s.Proc == "" && strings.HasPrefix(s.Name, "exec t") && s.Attrs["worker"] == workerID {
				execSpan = &s
				break
			}
		}
		if execSpan == nil {
			t.Fatalf("no master exec span for worker %s", workerID)
		}
		taskID := strings.TrimPrefix(execSpan.Name, "exec ")
		if qs := seen[key{"queue " + taskID, ""}]; len(qs) == 0 {
			t.Errorf("no master queue span for %s", taskID)
		}
		for _, stage := range []string{StageRecv, StageDecode, StageExec, StageEncode, StageSend} {
			var got *obs.Span
			for _, s := range seen[key{stage, workerID}] {
				if s.Attrs["task"] == taskID {
					got = &s
					break
				}
			}
			if got == nil {
				t.Errorf("worker %s: no %q span for task %s", workerID, stage, taskID)
				continue
			}
			if got.Parent != execSpan.ID {
				t.Errorf("worker %s: %q span parent = %d, want master exec span %d",
					workerID, stage, got.Parent, execSpan.ID)
			}
		}
	}

	// The Chrome export must put the two workers on their own process
	// lanes, named by metadata records.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"name":"master"`, `"name":"host wA"`, `"name":"host wB"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome export missing process lane %s", want)
		}
	}
	var chrome struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome export does not parse: %v", err)
	}
	pids := map[int]bool{}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.Pid] = true
		}
	}
	if len(pids) != 3 {
		t.Errorf("chrome export pids = %v, want master + 2 workers", pids)
	}
}

// TestHeartbeatsConvergeClockEstimate: even an idle worker's heartbeats
// carry the clock stamps, so the master's skew/RTT estimate appears
// without any task traffic (after the first task seeds the reverse leg).
func TestHeartbeatsCarryClockStamps(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{ResultBuffer: 8})
	mconn, wconn := pipePair()
	go func() { _ = m.HandleWorker(ctx, mconn) }()
	go func() {
		w := &Worker{ID: "hb", Exec: echoExec, HeartbeatEvery: 5 * time.Millisecond}
		_ = w.Run(ctx, wconn)
	}()
	waitFor(t, func() bool { return m.WorkerCount() == 1 }, "worker to attach")
	// One task seeds the master→worker delay leg (TaskDelayNs).
	if err := m.Submit(Task{ID: "t", JobID: "j", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	collect(t, m, 1)
	waitFor(t, func() bool {
		h := m.ClusterHealth()
		return len(h) > 0 && h[0].RTTMs != 0
	}, "clock estimate to converge")
}
