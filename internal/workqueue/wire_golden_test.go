package workqueue

// Golden wire-frame fixtures: one checked-in binary frame per message
// type, byte-exact. They freeze wire format v1 — a codec change that
// alters the bytes of an existing frame breaks TestGoldenFramesStable
// (bump wireVersion and regenerate with -update if the change is
// intentional), and a codec change that can no longer decode the
// checked-in bytes breaks TestGoldenFramesDecode (that one must never
// be regenerated away: old peers hold those bytes).

import (
	"bytes"
	"errors"
	"flag"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

var updateGolden = flag.Bool("update", false, "rewrite golden wire frames under testdata/golden")

// goldenMessages is the fixture set: every message type, every field
// populated with fixed values (telemetry map encoding is
// deterministically sorted, so the frames are byte-stable).
func goldenMessages() []message {
	task := Task{
		ID:      "task-0001",
		JobID:   "job-alpha",
		Payload: []byte(`{"tweet":"earthquake near pier 39","geo":[37.8,-122.4]}`),
		Span:    101,
		Trace:   &TraceContext{TraceID: "trace-cafe", ParentSpanID: 202},
		// Fixed stamps: 2024-08-06T00:00:00.123456789Z-ish.
		SentUnixNano: 1722900000123456789,
		TimeoutNs:    2_000_000_000,
	}
	task2 := Task{ID: "task-0002", JobID: "job-alpha", Payload: []byte("second"), SentUnixNano: 1722900000123456790}
	result := Result{
		TaskID:   "task-0001",
		JobID:    "job-alpha",
		WorkerID: "w0",
		Output:   []byte(`{"credible":true}`),
		Err:      "exec: kaput",
		ErrStage: StageExec,
		ErrTrace: "workqueue.runExec -> workqueue.(*Worker).execOne",
		Elapsed:  42_000_000,
	}
	result2 := Result{TaskID: "task-0002", JobID: "job-alpha", WorkerID: "w0", Output: []byte("SECOND"), Elapsed: 7_000_000}
	spans := []RemoteSpan{
		{TraceID: "trace-cafe", Parent: 202, Name: "task.recv", TaskID: "task-0001", StartUnixNano: 1722900000123500000, DurNs: 1000},
		{TraceID: "trace-cafe", Parent: 202, Name: "task.exec", TaskID: "task-0001", StartUnixNano: 1722900000123501000, DurNs: 41_000_000},
	}
	return []message{
		{Type: msgHello, WorkerID: "w0", Batch: 256},
		{Type: msgTask, Task: &task},
		{Type: msgResult, WorkerID: "w0", Result: &result,
			SentUnixNano: 1722900000165000000, TaskDelayNs: 250_000, Spans: spans},
		{Type: msgShutdown},
		{Type: msgHeartbeat, WorkerID: "w0", SentUnixNano: 1722900000200000000, TaskDelayNs: -1500},
		{Type: msgStats, WorkerID: "w0", SentUnixNano: 1722900000300000000,
			Stats: &WorkerStats{
				TasksExecuted: 12, TasksFailed: 1, BytesIn: 4096, BytesOut: 8192,
				Goroutines: 9, HeapBytes: 1 << 21, UptimeMs: 60000,
				Exec: obs.HistogramSnapshot{
					Count: 13, Sum: 101.5,
					Bounds: []float64{1, 10, 100},
					Counts: []int64{4, 6, 3, 0},
					P50:    8.5, P90: 52.0, P99: 98.0,
				},
			},
			Telemetry: &obs.TelemetryShip{
				Seq: 7, Full: true,
				Counters: map[string]int64{"wq_tasks_total": 12, "wq_tasks_failed_total": 1},
				Gauges:   map[string]float64{"wq_queue_len": 3},
				Hists: map[string]obs.HistogramDelta{
					"wq_exec_ms": {Bounds: []float64{1, 10}, Counts: []int64{2, 1, 0}, Count: 3, Sum: 14.5},
				},
			}},
		{Type: msgFreeze, Freeze: &FreezeRequest{Seq: 3, Trigger: "slo_burn", Detail: "p99 over budget", WindowNs: 5_000_000_000}},
		{Type: msgFlightDump, WorkerID: "w0", Dump: &FlightDump{
			Seq: 3, Host: "w0", Trigger: "slo_burn", Detail: "p99 over budget",
			Events: []flightrec.Event{
				{Ring: "codec", Probe: "codec.encode", T0: 1722900000123456000, T1: 1722900000123457000, Arg: 512, Parent: 202},
				{Ring: "exec", Probe: "exec.run", T0: 1722900000123460000, T1: 1722900000164000000, Parent: 202},
			},
		}},
		{Type: msgTaskBatch, Tasks: []Task{task, task2}},
		{Type: msgResultBatch, WorkerID: "w0", SentUnixNano: 1722900000170000000,
			TaskDelayNs: 250_000, Results: []Result{result, result2}, Spans: spans},
	}
}

func goldenPath(typ msgType) string {
	return filepath.Join("testdata", "golden", typ.String()+".bin")
}

// TestGoldenFramesStable: encoding the fixture messages must reproduce
// the checked-in frames byte for byte. A diff here means the encoder's
// output changed — a wire format break for already-deployed peers.
func TestGoldenFramesStable(t *testing.T) {
	for _, m := range goldenMessages() {
		m := m
		t.Run(m.Type.String(), func(t *testing.T) {
			m.CRC = m.checksum()
			frame := appendWireFrame(nil, &m)
			path := goldenPath(m.Type)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, frame, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(frame, want) {
				t.Fatalf("encoder output changed for %s: %d bytes vs %d golden bytes\n got % x\nwant % x",
					m.Type, len(frame), len(want), frame, want)
			}
			// Re-encoding the same message must be deterministic (the
			// telemetry maps are the only unordered inputs).
			if again := appendWireFrame(nil, &m); !bytes.Equal(frame, again) {
				t.Fatalf("encoding %s is nondeterministic", m.Type)
			}
		})
	}
}

// TestGoldenFramesDecode: the checked-in bytes must decode through the
// production recv path (header, body, CRC) to exactly the fixture
// message. This is the backward-compatibility contract: bytes already in
// flight from old peers keep decoding.
func TestGoldenFramesDecode(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	for _, m := range goldenMessages() {
		m := m
		t.Run(m.Type.String(), func(t *testing.T) {
			frame, err := os.ReadFile(goldenPath(m.Type))
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			a, b := net.Pipe()
			defer func() { _ = b.Close() }()
			go func() {
				_, _ = a.Write(frame)
				_ = a.Close()
			}()
			got, err := newCodec(b).recv()
			if err != nil {
				t.Fatalf("golden frame no longer decodes: %v", err)
			}
			want := m
			want.CRC = m.checksum()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("golden decode diverged\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestGoldenFrameWithoutCRCRejected: a frame whose CRC presence bit is
// clear (and whose four CRC bytes are gone with it, so it still parses)
// is not an "unchecked" frame — one flipped flag bit must not turn the
// integrity check off. Every golden frame re-framed that way is refused
// with ErrChecksum.
func TestGoldenFrameWithoutCRCRejected(t *testing.T) {
	for _, m := range goldenMessages() {
		golden, err := os.ReadFile(goldenPath(m.Type))
		if err != nil {
			t.Fatal(err)
		}
		m.CRC = 0 // wireFlags leaves wfCRC clear and the field unwritten
		stripped := appendWireFrame(nil, &m)
		if len(stripped) != len(golden)-4 {
			t.Fatalf("%s: stripped frame is %d bytes, golden %d — want exactly the CRC gone", m.Type, len(stripped), len(golden))
		}
		if err := DecodeFrame(stripped); !errors.Is(err, ErrChecksum) {
			t.Errorf("%s: frame without a CRC: got %v, want ErrChecksum", m.Type, err)
		}
	}
}

// TestGoldenCoversAllWireTypes: a new message type must ship a golden
// frame with it.
func TestGoldenCoversAllWireTypes(t *testing.T) {
	have := make(map[msgType]bool)
	for _, m := range goldenMessages() {
		have[m.Type] = true
	}
	for typ, name := range wireTypeName {
		if name != "" && !have[msgType(typ)] {
			t.Errorf("wire type %q has no golden frame — add it to goldenMessages and run -update", name)
		}
	}
}
