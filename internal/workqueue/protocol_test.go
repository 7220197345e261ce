package workqueue

import (
	"errors"
	"testing"
)

// TestHeartbeatRoundTrip: the minimal liveness message survives the wire
// unchanged.
func TestHeartbeatRoundTrip(t *testing.T) {
	a, b := pipePair()
	ca, cb := newCodec(a), newCodec(b)
	defer func() { _ = ca.close() }()
	go func() {
		_ = ca.send(message{Type: msgHeartbeat, WorkerID: "w"})
	}()
	m, err := cb.recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != msgHeartbeat || m.WorkerID != "w" || m.Telemetry != nil {
		t.Errorf("heartbeat round trip = %+v", m)
	}
}

// TestResultCarriesStage: the error_stage field survives the wire.
func TestResultCarriesStage(t *testing.T) {
	a, b := pipePair()
	ca, cb := newCodec(a), newCodec(b)
	defer func() { _ = ca.close() }()
	go func() {
		_ = ca.send(message{Type: msgResultBatch, Results: []Result{{
			TaskID: "t", Err: "boom", ErrStage: StageDecode,
		}}})
	}()
	m, err := cb.recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Results) != 1 || m.Results[0].ErrStage != StageDecode {
		t.Errorf("result stage lost: %+v", m.Results)
	}
}

// TestCodecCountsBytes: the codec's transport accounting feeds the
// worker's bytes_in/bytes_out telemetry.
func TestCodecCountsBytes(t *testing.T) {
	a, b := pipePair()
	ca, cb := newCodec(a), newCodec(b)
	defer func() { _ = ca.close() }()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := cb.recv(); err != nil {
			t.Errorf("recv: %v", err)
		}
	}()
	if err := ca.send(message{Type: msgHello, WorkerID: "counted"}); err != nil {
		t.Fatal(err)
	}
	<-done
	out := ca.bytesOut.Load()
	in := cb.bytesIn.Load()
	if out <= 0 || in <= 0 {
		t.Errorf("byte counters: out=%d in=%d, want both > 0", out, in)
	}
	if out != in {
		t.Errorf("sender counted %d bytes, receiver %d", out, in)
	}
}

// TestTaskErrorFormat: provenance errors name worker, task and stage.
func TestTaskErrorFormat(t *testing.T) {
	root := errors.New("kaput")
	te := newTaskError("w-3", "t-9", StageError(StageEncode, root))
	if te.WorkerID != "w-3" || te.TaskID != "t-9" || te.Stage != StageEncode {
		t.Errorf("provenance fields = %+v", te)
	}
	want := "worker w-3: task t-9: encode output: kaput"
	if te.Error() != want {
		t.Errorf("Error() = %q, want %q", te.Error(), want)
	}
}

// TestStageErrorDefaultsToExec: untagged executor failures are
// attributed to the exec stage.
func TestStageErrorDefaultsToExec(t *testing.T) {
	te := newTaskError("w", "t", errors.New("plain"))
	if te.Stage != StageExec {
		t.Errorf("untagged stage = %q, want %q", te.Stage, StageExec)
	}
	if StageError(StageDecode, nil) != nil {
		t.Errorf("StageError(nil) must be nil")
	}
}

// TestStageErrorMessage: a stage tag prefixes the cause's message, so a
// tagged error still reads well where it is logged before a worker
// strips the tag into a TaskError.
func TestStageErrorMessage(t *testing.T) {
	err := StageError(StageDecode, errors.New("short buffer"))
	if want := StageDecode + ": short buffer"; err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}
}

// TestChecksumAllocs: a frame's checksum allocates nothing, on a task
// batch or a result batch: it runs at send and at receive on both legs.
func TestChecksumAllocs(t *testing.T) {
	results := benchSpanResultMsg()
	results.Results = append(results.Results, Result{
		TaskID: "claim-17/4", JobID: "claim-17", WorkerID: "w-1",
		Err: "exec: boom", ErrStage: StageExec,
	})
	for name, m := range map[string]message{"task batch": benchTaskBatchMsg(4), "result batch": results} {
		if got := testing.AllocsPerRun(100, func() { m.CRC = m.checksum() }); got != 0 {
			t.Errorf("%s checksum allocations = %v, want 0", name, got)
		}
	}
}
