package workqueue

// Round-trip property tests: every message type, filled with seeded
// pseudo-random content, must come out of send → recv as the identical Go
// value — any field the codec drops, reorders or re-types shows up here
// as a DeepEqual diff naming the seed. Together with the golden frames
// (the bytes are the parent's) and FuzzDecode (bad bytes are rejected)
// this is the codec's correctness argument.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// genString draws a short string, including multi-byte runes, quotes
// and control characters.
func genString(rng *rand.Rand) string {
	const alphabet = "abcXYZ079-_./:\"\\\n\téλ中💥 "
	runes := []rune(alphabet)
	n := rng.Intn(24)
	out := make([]rune, n)
	for i := range out {
		out[i] = runes[rng.Intn(len(runes))]
	}
	return string(out)
}

// genBytes draws nil or a non-empty blob — never a non-nil empty slice,
// which the wire collapses to nil on decode.
func genBytes(rng *rand.Rand) []byte {
	if rng.Intn(3) == 0 {
		return nil
	}
	out := make([]byte, 1+rng.Intn(64))
	rng.Read(out)
	return out
}

func genTask(rng *rand.Rand) Task {
	t := Task{
		ID:        genString(rng),
		JobID:     genString(rng),
		Payload:   genBytes(rng),
		Span:      rng.Int63() - rng.Int63(),
		TimeoutNs: rng.Int63n(int64(time.Minute)),
	}
	if rng.Intn(2) == 0 {
		t.Trace = &TraceContext{TraceID: genString(rng), ParentSpanID: rng.Int63()}
	}
	return t
}

func genResult(rng *rand.Rand) Result {
	return Result{
		TaskID:   genString(rng),
		JobID:    genString(rng),
		WorkerID: genString(rng),
		Output:   genBytes(rng),
		Err:      genString(rng),
		ErrStage: genString(rng),
		ErrTrace: genString(rng),
		Elapsed:  time.Duration(rng.Int63n(int64(time.Hour))),
	}
}

func genSpans(rng *rand.Rand) []RemoteSpan {
	if rng.Intn(3) == 0 {
		return nil
	}
	out := make([]RemoteSpan, 1+rng.Intn(6))
	for i := range out {
		out[i] = RemoteSpan{
			TraceID:       genString(rng),
			Parent:        rng.Int63(),
			Name:          genString(rng),
			TaskID:        genString(rng),
			StartUnixNano: rng.Int63(),
			DurNs:         rng.Int63n(int64(time.Second)),
		}
	}
	return out
}

func genTelemetry(rng *rand.Rand) *obs.TelemetryShip {
	t := &obs.TelemetryShip{Seq: rng.Int63(), Full: rng.Intn(2) == 0}
	if n := rng.Intn(4); n > 0 {
		t.Counters = make(map[string]int64, n)
		for i := 0; i < n; i++ {
			t.Counters[genString(rng)+"c"] = rng.Int63() - rng.Int63()
		}
	}
	if n := rng.Intn(4); n > 0 {
		t.Gauges = make(map[string]float64, n)
		for i := 0; i < n; i++ {
			t.Gauges[genString(rng)+"g"] = rng.NormFloat64()
		}
	}
	if n := rng.Intn(3); n > 0 {
		t.Hists = make(map[string]obs.HistogramDelta, n)
		for i := 0; i < n; i++ {
			nb := 1 + rng.Intn(5)
			h := obs.HistogramDelta{Bounds: make([]float64, nb), Counts: make([]int64, nb+1),
				Count: rng.Int63n(1 << 40), Sum: rng.NormFloat64() * 1e6}
			for i := range h.Bounds {
				h.Bounds[i] = float64(i+1) * rng.Float64() * 10
			}
			for i := range h.Counts {
				h.Counts[i] = rng.Int63n(1 << 30)
			}
			t.Hists[genString(rng)+"h"] = h
		}
	}
	return t
}

func genDump(rng *rand.Rand) *FlightDump {
	d := &FlightDump{
		Seq:     rng.Int63(),
		Trigger: genString(rng),
		Detail:  genString(rng),
	}
	if n := rng.Intn(5); n > 0 {
		d.Events = make([]flightrec.Event, n)
		for i := range d.Events {
			d.Events[i] = flightrec.Event{
				Ring: genString(rng), Probe: genString(rng),
				T0: rng.Int63(), T1: rng.Int63(),
				Arg: rng.Int63() - rng.Int63(), Parent: rng.Int63(),
			}
		}
	}
	return d
}

// genMessage builds a seeded message of the given type with the field
// population the production senders use, plus randomized optional
// envelope fields (clock stamps, spans, telemetry).
func genMessage(rng *rand.Rand, typ msgType) message {
	m := message{Type: typ}
	switch typ {
	case msgHello:
		m.WorkerID = "w-" + genString(rng)
	case msgShutdown:
		// bare envelope
	case msgHeartbeat:
		m.WorkerID = "w-" + genString(rng)
		m.SentUnixNano = rng.Int63()
		m.TaskDelayNs = rng.Int63() - rng.Int63()
		m.Spans = genSpans(rng)
		if rng.Intn(2) == 0 {
			m.Telemetry = genTelemetry(rng)
		}
	case msgFreeze:
		m.Freeze = &FreezeRequest{
			Seq: rng.Int63(), Trigger: genString(rng),
			Detail: genString(rng), WindowNs: rng.Int63n(int64(time.Minute)),
		}
	case msgFlightDump:
		m.WorkerID = "w-" + genString(rng)
		m.Dump = genDump(rng)
	case msgTaskBatch:
		m.SentUnixNano = rng.Int63()
		m.Tasks = make([]Task, 1+rng.Intn(8))
		for i := range m.Tasks {
			m.Tasks[i] = genTask(rng)
		}
	case msgResultBatch:
		m.WorkerID = "w-" + genString(rng)
		m.SentUnixNano = rng.Int63()
		m.TaskDelayNs = rng.Int63() - rng.Int63()
		m.Results = make([]Result, 1+rng.Intn(8))
		for i := range m.Results {
			m.Results[i] = genResult(rng)
		}
		m.Spans = genSpans(rng)
	default:
		panic("genMessage: unknown type " + typ.String())
	}
	return m
}

// wireMessageTypes is every type genMessage can fill — kept in a
// test-side list so a new message type that forgets round-trip coverage
// fails TestRoundTripCoversAllWireTypes below.
func wireMessageTypes() []msgType {
	return []msgType{
		msgHello, msgTaskBatch, msgResultBatch, msgHeartbeat,
		msgShutdown, msgFreeze, msgFlightDump,
	}
}

// codecRoundTrip pushes m through the production send/recv paths, the
// receiver copying (the master's) or aliasing its receive buffer (a
// worker's), and returns the decoded message.
func codecRoundTrip(t *testing.T, m message, alias bool) message {
	t.Helper()
	a, b := pipePair()
	ca, cb := newCodec(a), newCodec(b)
	cb.alias = alias
	defer func() { _ = ca.close() }()
	errc := make(chan error, 1)
	go func() { errc <- ca.send(m) }()
	got, err := cb.recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("send: %v", err)
	}
	return got
}

// TestWireRoundTrip is the codec's property test: for every message type
// and many seeds, what recv returns equals what send was given
// (CRC-stamped), field for field — and sending the received value again
// reproduces it, checksum included, which is what lets the chaos layer
// decode, shift and re-encode a frame without tripping the CRC. The first
// trip lands in a copying codec, the second in an aliasing one.
func TestWireRoundTrip(t *testing.T) {
	const seedsPerType = 200
	for _, typ := range wireMessageTypes() {
		t.Run(typ.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < seedsPerType; seed++ {
				rng := rand.New(rand.NewSource(seed*1000 + int64(typ)))
				m := genMessage(rng, typ)
				want := m
				want.CRC = m.checksum() // send stamps this
				got := codecRoundTrip(t, m, false)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: round trip diverged\n got %+v\nwant %+v", seed, got, want)
				}
				if again := codecRoundTrip(t, got, true); !reflect.DeepEqual(again, want) {
					t.Fatalf("seed %d: re-encoding the decoded message diverged\n got %+v\nwant %+v", seed, again, want)
				}
			}
		})
	}
}

// TestRetriedMarkStaysOffTheWire: the master's Retried mark is its own
// bookkeeping — a result batch frames to the same bytes with or without it.
func TestRetriedMarkStaysOffTheWire(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := genMessage(rng, msgResultBatch)
	plain := appendWireFrame(nil, &m)
	for i := range m.Results {
		m.Results[i].Retried = true
	}
	if marked := appendWireFrame(nil, &m); !bytes.Equal(plain, marked) || len(m.Results) == 0 {
		t.Fatalf("marking %d results changed their frame", len(m.Results))
	}
}

// TestRoundTripCoversAllWireTypes pins the test list to the codec's type
// table: adding a message type without round-trip coverage is a failure,
// not an oversight.
func TestRoundTripCoversAllWireTypes(t *testing.T) {
	covered := make(map[msgType]bool)
	for _, typ := range wireMessageTypes() {
		covered[typ] = true
	}
	named := 0
	for typ, name := range wireTypeName {
		if name == "" {
			continue
		}
		named++
		if !covered[msgType(typ)] {
			t.Errorf("wire type %q has no round-trip coverage — add it to wireMessageTypes and genMessage", name)
		}
	}
	if len(covered) != named {
		t.Errorf("round-trip list has %d types, codec table has %d", len(covered), named)
	}
}

// TestWireFramesConcatenate: frames appended back to back into one
// buffer split cleanly at WireFrameSplit boundaries and decode
// independently — the invariant the chaos layer's frame splitter and any
// future frame-coalescing writer rely on.
func TestWireFramesConcatenate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var msgs []message
	var buf []byte
	for _, typ := range wireMessageTypes() {
		m := genMessage(rng, typ)
		m.CRC = m.checksum()
		msgs = append(msgs, m)
		buf = appendWireFrame(buf, &m)
	}
	for i, want := range msgs {
		n, ok := WireFrameSplit(buf)
		if !ok || n <= 0 {
			t.Fatalf("frame %d: split failed (n=%d ok=%v, %d bytes left)", i, n, ok, len(buf))
		}
		frame := buf[:n]
		buf = buf[n:]
		_, used := binary.Uvarint(frame[2:])
		got, err := decodeWireBody(frame[2+used:], false)
		if err != nil {
			t.Fatalf("frame %d (%s): decode: %v", i, want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d (%s) diverged\n got %+v\nwant %+v", i, want.Type, got, want)
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes after all frames", len(buf))
	}
}

// TestShiftBinaryStampsMovesClocksOnly: the chaos skew rewrite shifts
// exactly the absolute clock stamps (the envelope's SentUnixNano, span
// starts) and nothing else, to the nanosecond — stamps above 2^53
// that a float64 would round come out exact — and the shifted frame still
// passes its CRC, because skew must read as a timing condition, not
// corruption.
func TestShiftBinaryStampsMovesClocksOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const delta = int64(5 * time.Second)
	precise := 0 // shifted stamps float64 cannot represent
	shift := func(v *int64) {
		if *v == 0 {
			return
		}
		*v += delta
		if *v > 1<<53 && int64(float64(*v)) != *v {
			precise++
		}
	}
	for _, typ := range []msgType{msgHeartbeat, msgTaskBatch, msgResultBatch} {
		m := genMessage(rng, typ)
		m.CRC = m.checksum()
		shifted := ShiftBinaryStamps(appendWireFrame(nil, &m), delta)
		_, used := binary.Uvarint(shifted[2:])
		got, err := decodeWireBody(shifted[2+used:], false)
		if err != nil {
			t.Fatalf("%s: shifted frame does not decode: %v", typ, err)
		}
		if got.CRC != got.checksum() {
			t.Errorf("%s: skew broke the checksum — skew must not read as corruption", typ)
		}
		want := m
		shift(&want.SentUnixNano)
		want.Spans = append([]RemoteSpan(nil), want.Spans...)
		for i := range want.Spans {
			shift(&want.Spans[i].StartUnixNano)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: skew rewrote more than the clock stamps\n got %+v\nwant %+v", typ, got, want)
		}
	}
	if precise < 4 {
		t.Fatalf("only %d shifted stamps lie above 2^53 off the float64 grid — int64 precision went untested", precise)
	}
}
