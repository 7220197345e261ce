package workqueue

// Golden wire-frame fixtures: one checked-in binary frame per message
// type, plus a heartbeat carrying a telemetry ship, byte-exact. They
// freeze wire format v3 — a codec change that alters the bytes of an
// existing frame breaks TestGoldenFramesStable (bump wireVersion, copy
// the frames to testdata/golden/v<old> and regenerate with -update if the
// change is intentional), and a codec change that can no longer decode
// the checked-in bytes breaks TestGoldenFramesDecode. The v1 and v2
// frames under testdata/golden/v1 and v2 are the retired formats', kept
// so TestWireOldVersionsRetired proves they are refused on purpose rather
// than by accident.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

var updateGolden = flag.Bool("update", false, "rewrite golden wire frames under testdata/golden")

// goldenFrame is one fixture: a message and the file its frame lives in.
type goldenFrame struct {
	name string
	m    message
}

// goldenFrames is the fixture set: every message type, every field
// populated with fixed values (telemetry map encoding is
// deterministically sorted, so the frames are byte-stable), named after
// the type — plus heartbeat-telemetry, a heartbeat carrying a ship.
func goldenFrames() []goldenFrame {
	task := Task{
		ID:        "task-0001",
		JobID:     "job-alpha",
		Payload:   []byte(`{"tweet":"earthquake near pier 39","geo":[37.8,-122.4]}`),
		Span:      101,
		Trace:     &TraceContext{TraceID: "trace-cafe", ParentSpanID: 202},
		TimeoutNs: 2_000_000_000,
	}
	task2 := Task{ID: "task-0002", JobID: "job-alpha", Payload: []byte("second")}
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
	// The decoder derives quantiles from the buckets, so the fixture does.
	execMs := obs.HistogramSnapshot{Bounds: []float64{1, 10}, Counts: []int64{2, 1, 0}, Count: 3, Sum: 14.5}
	execMs.FillQuantiles()
	return []goldenFrame{
		{"hello", message{Type: msgHello, WorkerID: "w0"}},
		// Fixed stamps: 2024-08-06T00:00:00.123456789Z-ish.
		{"task-batch", message{Type: msgTaskBatch, SentUnixNano: 1722900000123456789, Tasks: []Task{task, task2}}},
		{"result-batch", message{Type: msgResultBatch, WorkerID: "w0", SentUnixNano: 1722900000170000000,
			TaskDelayNs: 250_000, Results: []Result{result, result2}, Spans: spans}},
		{"heartbeat", message{Type: msgHeartbeat, WorkerID: "w0", SentUnixNano: 1722900000200000000, TaskDelayNs: -1500}},
		{"heartbeat-telemetry", message{Type: msgHeartbeat, WorkerID: "w0", SentUnixNano: 1722900000300000000,
			Telemetry: &obs.RegistrySnapshot{
				Counters:   map[string]int64{"wq_tasks_total": 12, "wq_tasks_failed_total": 1},
				Gauges:     map[string]float64{"wq_queue_len": 3},
				Histograms: map[string]obs.HistogramSnapshot{"wq_exec_ms": execMs},
			}}},
		{"shutdown", message{Type: msgShutdown}},
		{"freeze", message{Type: msgFreeze, Freeze: &FreezeRequest{Seq: 3, Trigger: "slo_burn", Detail: "p99 over budget", WindowNs: 5_000_000_000}}},
		{"flight-dump", message{Type: msgFlightDump, WorkerID: "w0", Dump: &FlightDump{
			Seq: 3, Trigger: "slo_burn", Detail: "p99 over budget",
			Events: []flightrec.Event{
				{Ring: "codec", Probe: "codec.encode", T0: 1722900000123456000, T1: 1722900000123457000, Arg: 512, Parent: 202},
				{Ring: "exec", Probe: "exec.run", T0: 1722900000123460000, T1: 1722900000164000000, Parent: 202},
			},
		}}},
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".bin")
}

// TestGoldenFramesStable: encoding the fixture messages must reproduce
// the checked-in frames byte for byte. A diff here means the encoder's
// output changed — a wire format break for already-deployed peers.
func TestGoldenFramesStable(t *testing.T) {
	for _, g := range goldenFrames() {
		m := g.m
		t.Run(g.name, func(t *testing.T) {
			m.CRC = m.checksum()
			frame := appendWireFrame(nil, &m)
			path := goldenPath(g.name)
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
// message. This is the compatibility contract within a wire version:
// bytes already in flight from peers of the same version keep decoding.
func TestGoldenFramesDecode(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	for _, g := range goldenFrames() {
		m := g.m
		t.Run(g.name, func(t *testing.T) {
			frame, err := os.ReadFile(goldenPath(g.name))
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
	for _, g := range goldenFrames() {
		golden, err := os.ReadFile(goldenPath(g.name))
		if err != nil {
			t.Fatal(err)
		}
		m := g.m
		m.CRC = 0 // wireFlags leaves wfCRC clear and the field unwritten
		stripped := appendWireFrame(nil, &m)
		if len(stripped) != len(golden)-4 {
			t.Fatalf("%s: stripped frame is %d bytes, golden %d — want exactly the CRC gone", g.name, len(stripped), len(golden))
		}
		if err := DecodeFrame(stripped); !errors.Is(err, ErrChecksum) {
			t.Errorf("%s: frame without a CRC: got %v, want ErrChecksum", g.name, err)
		}
	}
}

// TestGoldenCoversAllWireTypes: wire v3 has exactly seven message types,
// and a new one must ship a golden frame with it.
func TestGoldenCoversAllWireTypes(t *testing.T) {
	have := make(map[msgType]bool)
	for _, g := range goldenFrames() {
		have[g.m.Type] = true
	}
	named := 0
	for typ, name := range wireTypeName {
		if name == "" {
			continue
		}
		named++
		if !have[msgType(typ)] {
			t.Errorf("wire type %q has no golden frame — add it to goldenFrames and run -update", name)
		}
	}
	if named != 7 {
		t.Errorf("wire v3 names %d message types, want 7", named)
	}
}

// TestWireOldVersionsRetired: wires v1 and v2 are refused on purpose, not
// by accident. Each of their golden frames, ten frozen under
// testdata/golden/v1 and eight under v2 (whose telemetry was a delta
// ship), fails to decode with ErrWireFormat; so does a v3 frame with a
// presence bit outside the v3 set.
func TestWireOldVersionsRetired(t *testing.T) {
	for _, old := range []struct {
		version string
		frames  int
	}{{"v1", 10}, {"v2", 8}} {
		paths, err := filepath.Glob(filepath.Join("testdata", "golden", old.version, "*.bin"))
		if err != nil || len(paths) != old.frames {
			t.Fatalf("want the %d %s golden frames, got %d (err %v)", old.frames, old.version, len(paths), err)
		}
		for _, p := range paths {
			t.Run(old.version+"/"+strings.TrimSuffix(filepath.Base(p), ".bin"), func(t *testing.T) {
				frame, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := DecodeFrame(frame); !errors.Is(err, ErrWireFormat) {
					t.Errorf("%s frame: got %v, want ErrWireFormat", old.version, err)
				}
			})
		}
	}
	t.Run("unknown-presence-bit", func(t *testing.T) {
		m := message{Type: msgHeartbeat, WorkerID: "w0"}
		m.CRC = m.checksum()
		frame := appendWireFrame(nil, &m)
		_, n := binary.Uvarint(frame[2:])
		body := frame[2+n:]
		flags, k := binary.Uvarint(body[1:])
		forged := binary.AppendUvarint([]byte{body[0]}, flags|(wfKnown+1))
		forged = append(forged, body[1+k:]...)
		frame = append(binary.AppendUvarint([]byte{WireMagic, wireVersion}, uint64(len(forged))), forged...)
		if err := DecodeFrame(frame); !errors.Is(err, ErrWireFormat) {
			t.Errorf("frame with presence bit %#x: got %v, want ErrWireFormat", wfKnown+1, err)
		}
	})
}
