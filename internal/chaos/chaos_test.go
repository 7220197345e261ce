package chaos

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/workqueue"
)

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("drop=0.3,corrupt=0.05,seed=7,delay=0.1:1ms-5ms,skew=250ms,hang=0.02:2s,script=corrupt@20-60+reset@w3:40-41")
	if err != nil {
		t.Fatal(err)
	}
	if s.Drop != 0.3 || s.Corrupt != 0.05 || s.Seed != 7 {
		t.Fatalf("probabilities/seed mismatch: %+v", s)
	}
	if s.Delay != 0.1 || s.DelayMin != time.Millisecond || s.DelayMax != 5*time.Millisecond {
		t.Fatalf("delay mismatch: %+v", s)
	}
	if s.SkewNs != int64(250*time.Millisecond) {
		t.Fatalf("skew mismatch: %d", s.SkewNs)
	}
	if s.Hang != 0.02 || s.HangFor != 2*time.Second {
		t.Fatalf("hang mismatch: %+v", s)
	}
	if len(s.Script) != 2 {
		t.Fatalf("script entries: %+v", s.Script)
	}
	if s.Script[0] != (ScriptedFault{Fault: FaultCorrupt, From: 20, To: 60}) {
		t.Fatalf("script[0]: %+v", s.Script[0])
	}
	if s.Script[1] != (ScriptedFault{Fault: FaultReset, Stream: "w3", From: 40, To: 41}) {
		t.Fatalf("script[1]: %+v", s.Script[1])
	}
	if _, err := ParseSpec("drop=1.5"); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if _, err := ParseSpec("nonsense=1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := ParseSpec("drop"); err == nil {
		t.Fatal("entry without value accepted")
	}
	if z, err := ParseSpec("  "); err != nil || z.Drop != 0 || z.Seed != 0 || z.Script != nil {
		t.Fatalf("blank spec: %+v, %v", z, err)
	}
}

// TestPlanDeterminism is the reproducibility contract: equal specs give
// equal fault plans, regardless of when or where decisions are asked.
func TestPlanDeterminism(t *testing.T) {
	spec := Spec{Seed: 42, Drop: 0.2, Corrupt: 0.1, Delay: 0.05, Reset: 0.01, Crash: 0.1, Fail: 0.05}
	a, b := New(spec, nil, nil), New(spec, nil, nil)
	streams := []string{"w0-r0/worker", "w1-r0/worker", "pair-0/master"}
	fired := 0
	for _, s := range streams {
		pa, pb := a.Plan(s, 512), b.Plan(s, 512)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("stream %s frame %d: %q vs %q", s, i, pa[i], pb[i])
			}
			if pa[i] != "" {
				fired++
			}
		}
		for i := uint64(0); i < 256; i++ {
			if a.ExecFault(s, i) != b.ExecFault(s, i) {
				t.Fatalf("exec plan diverged at %s/%d", s, i)
			}
		}
	}
	if fired == 0 {
		t.Fatal("no faults in 1536 frames at ~36% combined probability")
	}
	// A different seed must yield a different plan.
	c := New(Spec{Seed: 43, Drop: 0.2, Corrupt: 0.1, Delay: 0.05, Reset: 0.01}, nil, nil)
	if same := equalPlans(a.Plan("w0-r0/worker", 512), c.Plan("w0-r0/worker", 512)); same {
		t.Fatal("seed 42 and 43 produced identical 512-frame plans")
	}
}

func equalPlans(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestScriptedFaultOverrides(t *testing.T) {
	in := New(Spec{Script: []ScriptedFault{{Fault: FaultCorrupt, From: 20, To: 60}}}, nil, nil)
	for i := uint64(0); i < 100; i++ {
		want := ""
		if i >= 20 && i < 60 {
			want = FaultCorrupt
		}
		if got := in.FrameFault("any", i); got != want {
			t.Fatalf("frame %d: got %q want %q", i, got, want)
		}
	}
	// Stream-scoped entries only hit matching streams.
	in = New(Spec{Script: []ScriptedFault{{Fault: FaultDrop, Stream: "w3", From: 0, To: 10}}}, nil, nil)
	if in.FrameFault("w3-r0/worker", 5) != FaultDrop {
		t.Fatal("matching stream not faulted")
	}
	if in.FrameFault("w1-r0/worker", 5) != "" {
		t.Fatal("non-matching stream faulted")
	}
}

// testFrame wraps body in a wire frame header: magic, version 1, uvarint
// body length. The chaos layer only reads the header, so the body need
// not decode.
func testFrame(body ...byte) []byte {
	out := binary.AppendUvarint([]byte{workqueue.WireMagic, 1}, uint64(len(body)))
	return append(out, body...)
}

// goldenFrame loads one of the codec's checked-in frames — a complete,
// CRC-stamped message for the tests that need a frame that decodes.
func goldenFrame(t *testing.T, name string) []byte {
	t.Helper()
	frame, err := os.ReadFile(filepath.Join("..", "workqueue", "testdata", "golden", name+".bin"))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestCorruptFrameModes: each damage shape is deterministic and does to
// the frame what its name says.
func TestCorruptFrameModes(t *testing.T) {
	frame := goldenFrame(t, "result-batch")
	_, lenBytes := binary.Uvarint(frame[2:])
	hdr := 2 + lenBytes // magic, version, body length
	seen := map[string]bool{}
	for h := uint64(0); h < 64; h++ {
		got, mode := CorruptFrame(h, frame)
		again, _ := CorruptFrame(h, frame)
		if !bytes.Equal(got, again) {
			t.Fatalf("mode %s not deterministic", mode)
		}
		if bytes.Equal(got, frame) {
			t.Fatalf("mode %s left the frame intact (h=%d)", mode, h)
		}
		switch mode {
		case "bitflip", "garbage": // body damage under an intact header
			if len(got) != len(frame) || !bytes.Equal(got[:hdr], frame[:hdr]) {
				t.Fatalf("mode %s touched the framing (h=%d)", mode, h)
			}
		case "truncate":
			if len(got) >= len(frame) || !bytes.Equal(got, frame[:len(got)]) {
				t.Fatalf("truncate is not a strict prefix (h=%d)", h)
			}
		case "oversize": // the header now announces more than the frame cap
			if n, ok := workqueue.WireFrameSplit(got); !ok || n != len(got) {
				t.Fatalf("oversize header not flushed through as garbage: split %d/%v of %d", n, ok, len(got))
			}
		}
		seen[mode] = true
	}
	for _, m := range []string{"bitflip", "truncate", "oversize", "garbage"} {
		if !seen[m] {
			t.Fatalf("mode %s never selected in 64 hashes", m)
		}
	}
}

// readN reads exactly n bytes from c or fails the test after 2s.
func readN(t *testing.T, c net.Conn, n int) []byte {
	t.Helper()
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read %d bytes: %v", n, err)
	}
	return buf
}

// TestSkewShiftsStampsExactly: a frame crossing a skewed connection has
// its clock stamp moved by exactly SkewNs as an int64 — the golden task's
// stamp is odd and above 2^53, so any float64 detour would round it.
func TestSkewShiftsStampsExactly(t *testing.T) {
	const stamp = int64(1722900000123456789)
	skew := int64(250 * time.Millisecond)
	if int64(float64(stamp+skew)) == stamp+skew {
		t.Fatal("test stamp is float64-representable — it proves nothing")
	}
	frame := goldenFrame(t, "task-batch")
	before, after := binary.AppendVarint(nil, stamp), binary.AppendVarint(nil, stamp+skew)
	if !bytes.Contains(frame, before) {
		t.Fatal("golden task frame does not carry the expected stamp")
	}
	in := New(Spec{SkewNs: skew}, nil, nil)
	a, b := net.Pipe()
	defer b.Close()
	w := in.WrapConn("s", a)
	go func() {
		w.Write(frame)
		w.Close()
	}()
	got := readN(t, b, len(frame)) // same-width varint: the length is unchanged
	if !bytes.Contains(got, after) || bytes.Contains(got, before) {
		t.Fatalf("skewed frame does not carry stamp+skew exactly\n got % x\nwant it to contain % x", got, after)
	}
	if evs := in.Events(); len(evs) != 1 || evs[0].Fault != FaultSkew {
		t.Fatalf("events: %+v", evs)
	}
}

// TestConnFrameFaults drives a wrapped pipe through a scripted schedule
// and checks the peer sees exactly the surviving frames — counting
// frames, not writes: frame 0 arrives in two pieces and frame 1 shares a
// write with frame 2.
func TestConnFrameFaults(t *testing.T) {
	in := New(Spec{Script: []ScriptedFault{{Fault: FaultDrop, From: 1, To: 2}}}, nil, nil)
	a, b := net.Pipe()
	defer b.Close()
	w := in.WrapConn("s", a)
	f0, f1, f2 := testFrame(0), testFrame(1), testFrame(2)
	go func() {
		w.Write(f0[:2])
		w.Write(f0[2:])
		w.Write(append(f1, f2...))
		w.Close()
	}()
	if got := readN(t, b, len(f0)+len(f2)); !bytes.Equal(got, append(f0, f2...)) {
		t.Fatalf("peer saw % x, want frames 0 and 2", got)
	}
	evs := in.Events()
	if len(evs) != 1 || evs[0].Fault != FaultDrop || evs[0].Index != 1 {
		t.Fatalf("events: %+v", evs)
	}
}

// TestConnReset checks a scripted reset severs the link and surfaces an
// error to the writer.
func TestConnReset(t *testing.T) {
	in := New(Spec{Script: []ScriptedFault{{Fault: FaultReset, From: 0, To: 1}}}, nil, nil)
	a, b := net.Pipe()
	defer b.Close()
	w := in.WrapConn("s", a)
	done := make(chan error, 1)
	go func() {
		_, err := w.Write(testFrame(0))
		done <- err
	}()
	// The read side must observe EOF (the reset closed the pipe).
	buf := make([]byte, 8)
	if _, err := b.Read(buf); err == nil {
		t.Fatal("peer read succeeded after reset")
	}
	if err := <-done; err == nil {
		t.Fatal("write after reset reported success")
	}
}

// TestNonFramePassedThrough: bytes that do not begin with the wire magic
// are not a frame — even a drop-everything plan hands them to the peer
// untouched and unnumbered, for its codec to reject.
func TestNonFramePassedThrough(t *testing.T) {
	in := New(Spec{Drop: 1}, nil, nil)
	a, b := net.Pipe()
	defer b.Close()
	w := in.WrapConn("s", a)
	line := []byte(`{"type":"hello"}` + "\n")
	go func() {
		w.Write(line)
		w.Close()
	}()
	if got := readN(t, b, len(line)); !bytes.Equal(got, line) {
		t.Fatalf("peer saw %q, want %q", got, line)
	}
	if evs := in.Events(); len(evs) != 0 {
		t.Fatalf("non-frame bytes were faulted: %+v", evs)
	}
}
