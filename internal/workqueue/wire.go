package workqueue

// wire.go is the length-prefixed binary wire format — the only format
// the cluster speaks. A frame is
//
//	magic(0xF5) version(0x03) uvarint(bodyLen) body
//
// and the body is one message: a type byte, a field-presence bitmap, then
// the present fields in fixed order. Strings and byte slices travel as
// uvarint length + raw bytes, integers as varints, floats as fixed 8-byte
// IEEE 754 little-endian, and repeated structures (spans, tasks, results,
// histogram buckets, telemetry samples) as flat
// count-prefixed arrays — no field names, no base64, no per-field
// allocation. Map-backed telemetry is emitted with sorted keys so
// encoding is deterministic and golden frames stay byte-stable.
//
// This file is the one place that knows the layout: the codec
// (protocol.go) reads and writes frames through it, and the chaos layer
// cuts, skews and damages frames through WireFrameSplit and
// ShiftBinaryStamps. The CRC32 integrity check (message.checksum) is
// computed over decoded field values, not frame bytes.
import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// WireMagic is the first byte of every frame. It is not a legal first
// byte of UTF-8 text, so a peer speaking anything else — an HTTP client,
// a line protocol — is rejected on its first byte.
const WireMagic byte = 0xF5

// wireVersion is the binary format revision. Bump it for incompatible
// layout changes; the decoder rejects versions it does not know. Version
// 2 has one message type per concern: every task frame is a batch, stats
// ride on the heartbeat, and the hello negotiates nothing. Version 3
// ships telemetry as a whole registry snapshot. Frames of versions 1
// and 2 are kept under testdata/golden as proof they are refused.
const wireVersion byte = 3

// ErrWireFormat is returned by recv for a structurally invalid frame: a
// wrong magic byte or version, truncated varints, lengths past the frame
// end, unknown message types or presence bits, or trailing garbage.
var ErrWireFormat = errors.New("workqueue: malformed binary frame")

// Field-presence bits, in encode order.
const (
	wfWorkerID = 1 << iota
	wfSent
	wfTaskDelay
	wfCRC
	wfSpans
	wfTelemetry
	wfFreeze
	wfDump
	wfTasks
	wfResults
	// wfKnown is every bit above; the decoder rejects any other.
	wfKnown = 1<<iota - 1
)

// wireBufPool recycles encode scratch. Buffers are returned at their grown
// capacity, so steady-state encode of same-shaped traffic allocates
// nothing.
var wireBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// wireHeaderRoom reserves space in the encode buffer for the frame
// header: magic + version + a worst-case 5-byte uvarint length (bodies
// are capped well under 4 GiB by MaxFrameBytes).
const wireHeaderRoom = 7

// wireWriter appends primitive values to a growing buffer.
type wireWriter struct{ b []byte }

func (w *wireWriter) u64(v uint64)  { w.b = binary.AppendUvarint(w.b, v) }
func (w *wireWriter) i64(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *wireWriter) byte(v byte)   { w.b = append(w.b, v) }
func (w *wireWriter) str(s string)  { w.u64(uint64(len(s))); w.b = append(w.b, s...) }
func (w *wireWriter) blob(p []byte) { w.u64(uint64(len(p))); w.b = append(w.b, p...) }
func (w *wireWriter) f64(v float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}
func (w *wireWriter) u32(v uint32) {
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}
func (w *wireWriter) f64s(vs []float64) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.f64(v)
	}
}
func (w *wireWriter) i64s(vs []int64) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.i64(v)
	}
}

// wireReader consumes primitive values from a frame body with a sticky
// error: the first malformed read poisons the reader and every later
// read returns zero values, so decode paths stay straight-line.
type wireReader struct {
	b     []byte
	off   int
	err   error
	alias bool // blob returns sub-slices of b instead of copies
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = ErrWireFormat
	}
}

func (r *wireReader) remaining() int { return len(r.b) - r.off }

func (r *wireReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) i64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 1 {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// count reads a length-prefix and validates it against the bytes left in
// the frame (each counted element occupies at least elemSize bytes), so
// a corrupt count can never drive a large allocation.
func (r *wireReader) count(elemSize int) int {
	v := r.u64()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.remaining())/uint64(elemSize)+1 || int(v)*elemSize > r.remaining() {
		r.fail()
		return 0
	}
	return int(v)
}

func (r *wireReader) str() string {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// blob returns the next byte string: a copy, or with alias set the
// frame's own bytes, capped so an append cannot spill into what follows.
// Zero length decodes as nil.
func (r *wireReader) blob() []byte {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := r.b[r.off : r.off+n : r.off+n]
	if !r.alias {
		out = append([]byte(nil), out...)
	}
	r.off += n
	return out
}

func (r *wireReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *wireReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *wireReader) f64s() []float64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

func (r *wireReader) i64s() []int64 {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.i64()
	}
	return out
}

// --- per-structure encoders/decoders ------------------------------------

func wirePutTask(w *wireWriter, t *Task) {
	w.str(t.ID)
	w.str(t.JobID)
	w.blob(t.Payload)
	w.i64(t.Span)
	if t.Trace != nil {
		w.byte(1)
		w.str(t.Trace.TraceID)
		w.i64(t.Trace.ParentSpanID)
	} else {
		w.byte(0)
	}
	w.i64(t.TimeoutNs)
}

// The decoders build each structure in one composite literal: Go
// evaluates its calls in lexical order, which is the fields' wire order.
func wireGetTask(r *wireReader) Task {
	t := Task{ID: r.str(), JobID: r.str(), Payload: r.blob(), Span: r.i64()}
	if r.byte() != 0 {
		t.Trace = &TraceContext{TraceID: r.str(), ParentSpanID: r.i64()}
	}
	t.TimeoutNs = r.i64()
	return t
}

func wirePutResult(w *wireWriter, res *Result) {
	w.str(res.TaskID)
	w.str(res.JobID)
	w.str(res.WorkerID)
	w.blob(res.Output)
	w.str(res.Err)
	w.str(res.ErrStage)
	w.str(res.ErrTrace)
	w.i64(int64(res.Elapsed))
}

func wireGetResult(r *wireReader) Result {
	return Result{TaskID: r.str(), JobID: r.str(), WorkerID: r.str(), Output: r.blob(),
		Err: r.str(), ErrStage: r.str(), ErrTrace: r.str(), Elapsed: time.Duration(r.i64())}
}

func wirePutSpan(w *wireWriter, s *RemoteSpan) {
	w.str(s.TraceID)
	w.i64(s.Parent)
	w.str(s.Name)
	w.str(s.TaskID)
	w.i64(s.StartUnixNano)
	w.i64(s.DurNs)
}

func wireGetSpan(r *wireReader) RemoteSpan {
	return RemoteSpan{TraceID: r.str(), Parent: r.i64(), Name: r.str(),
		TaskID: r.str(), StartUnixNano: r.i64(), DurNs: r.i64()}
}

// sortedKeys returns map keys in sorted order so telemetry encoding is
// deterministic (golden frames are byte-stable across runs).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// wirePutTelemetry writes a worker's registry snapshot. Quantiles are
// derived, so they stay off the wire; the decoder recomputes them.
func wirePutTelemetry(w *wireWriter, t *obs.RegistrySnapshot) {
	w.u64(uint64(len(t.Counters)))
	for _, k := range sortedKeys(t.Counters) {
		w.str(k)
		w.i64(t.Counters[k])
	}
	w.u64(uint64(len(t.Gauges)))
	for _, k := range sortedKeys(t.Gauges) {
		w.str(k)
		w.f64(t.Gauges[k])
	}
	w.u64(uint64(len(t.Histograms)))
	for _, k := range sortedKeys(t.Histograms) {
		h := t.Histograms[k]
		w.str(k)
		w.f64s(h.Bounds)
		w.i64s(h.Counts)
		w.i64(h.Count)
		w.f64(h.Sum)
	}
}

func wireGetTelemetry(r *wireReader) *obs.RegistrySnapshot {
	t := &obs.RegistrySnapshot{}
	if n := r.count(2); n > 0 {
		t.Counters = make(map[string]int64, n)
		for i := 0; i < n; i++ {
			k := r.str()
			t.Counters[k] = r.i64()
		}
	}
	if n := r.count(2); n > 0 {
		t.Gauges = make(map[string]float64, n)
		for i := 0; i < n; i++ {
			k := r.str()
			t.Gauges[k] = r.f64()
		}
	}
	if n := r.count(2); n > 0 {
		t.Histograms = make(map[string]obs.HistogramSnapshot, n)
		for i := 0; i < n; i++ {
			k := r.str()
			h := obs.HistogramSnapshot{Bounds: r.f64s(), Counts: r.i64s(), Count: r.i64(), Sum: r.f64()}
			h.FillQuantiles()
			t.Histograms[k] = h
		}
	}
	return t
}

func wirePutFreeze(w *wireWriter, f *FreezeRequest) {
	w.i64(f.Seq)
	w.str(f.Trigger)
	w.str(f.Detail)
	w.i64(f.WindowNs)
}

func wireGetFreeze(r *wireReader) *FreezeRequest {
	return &FreezeRequest{Seq: r.i64(), Trigger: r.str(), Detail: r.str(), WindowNs: r.i64()}
}

func wirePutDump(w *wireWriter, d *FlightDump) {
	w.i64(d.Seq)
	w.str(d.Trigger)
	w.str(d.Detail)
	w.u64(uint64(len(d.Events)))
	for i := range d.Events {
		e := &d.Events[i]
		w.str(e.Ring)
		w.str(e.Probe)
		w.i64(e.T0)
		w.i64(e.T1)
		w.i64(e.Arg)
		w.i64(e.Parent)
	}
}

func wireGetDump(r *wireReader) *FlightDump {
	d := &FlightDump{Seq: r.i64(), Trigger: r.str(), Detail: r.str()}
	if n := r.count(6); n > 0 {
		d.Events = make([]flightrec.Event, n)
		for i := range d.Events {
			d.Events[i] = flightrec.Event{Ring: r.str(), Probe: r.str(),
				T0: r.i64(), T1: r.i64(), Arg: r.i64(), Parent: r.i64()}
		}
	}
	return d
}

// --- whole-message encode/decode ----------------------------------------

// wireFlags computes the presence bitmap for m.
func wireFlags(m *message) uint64 {
	var f uint64
	if m.WorkerID != "" {
		f |= wfWorkerID
	}
	if m.SentUnixNano != 0 {
		f |= wfSent
	}
	if m.TaskDelayNs != 0 {
		f |= wfTaskDelay
	}
	if m.CRC != 0 {
		f |= wfCRC
	}
	if len(m.Spans) > 0 {
		f |= wfSpans
	}
	if m.Telemetry != nil {
		f |= wfTelemetry
	}
	if m.Freeze != nil {
		f |= wfFreeze
	}
	if m.Dump != nil {
		f |= wfDump
	}
	if len(m.Tasks) > 0 {
		f |= wfTasks
	}
	if len(m.Results) > 0 {
		f |= wfResults
	}
	return f
}

// appendWireFrame encodes m as one complete frame (header included)
// appended to dst.
func appendWireFrame(dst []byte, m *message) []byte {
	// Reserve header room, encode the body after it, then write the
	// header immediately before the body — one buffer, no copy.
	base := len(dst)
	for len(dst) < base+wireHeaderRoom {
		dst = append(dst, 0)
	}
	w := wireWriter{b: dst}
	w.byte(byte(m.Type))
	flags := wireFlags(m)
	w.u64(flags)
	if flags&wfWorkerID != 0 {
		w.str(m.WorkerID)
	}
	if flags&wfSent != 0 {
		w.i64(m.SentUnixNano)
	}
	if flags&wfTaskDelay != 0 {
		w.i64(m.TaskDelayNs)
	}
	if flags&wfCRC != 0 {
		w.u32(m.CRC)
	}
	if flags&wfSpans != 0 {
		w.u64(uint64(len(m.Spans)))
		for i := range m.Spans {
			wirePutSpan(&w, &m.Spans[i])
		}
	}
	if flags&wfTelemetry != 0 {
		wirePutTelemetry(&w, m.Telemetry)
	}
	if flags&wfFreeze != 0 {
		wirePutFreeze(&w, m.Freeze)
	}
	if flags&wfDump != 0 {
		wirePutDump(&w, m.Dump)
	}
	if flags&wfTasks != 0 {
		w.u64(uint64(len(m.Tasks)))
		for i := range m.Tasks {
			wirePutTask(&w, &m.Tasks[i])
		}
	}
	if flags&wfResults != 0 {
		w.u64(uint64(len(m.Results)))
		for i := range m.Results {
			wirePutResult(&w, &m.Results[i])
		}
	}
	bodyLen := len(w.b) - base - wireHeaderRoom
	var hdr [wireHeaderRoom]byte
	hdr[0] = WireMagic
	hdr[1] = wireVersion
	n := binary.PutUvarint(hdr[2:], uint64(bodyLen))
	// Slide the header flush against the body: the frame starts at
	// base+wireHeaderRoom-(2+n).
	start := base + wireHeaderRoom - (2 + n)
	copy(w.b[start:], hdr[:2+n])
	if start > base {
		// Shift the frame down so it begins at base (callers append
		// frames back to back).
		copy(w.b[base:], w.b[start:])
		w.b = w.b[:len(w.b)-(start-base)]
	}
	return w.b
}

// decodeWireBody decodes one binary frame body (header already consumed).
// With alias set, task payloads and result outputs are sub-slices of body.
func decodeWireBody(body []byte, alias bool) (message, error) {
	r := wireReader{b: body, alias: alias}
	m := message{Type: msgType(r.byte())}
	if m.Type.String() == "" {
		return message{}, fmt.Errorf("%w: unknown message type %d", ErrWireFormat, byte(m.Type))
	}
	flags := r.u64()
	if flags&^wfKnown != 0 {
		return message{}, obs.Wrap(fmt.Errorf("%w: unknown presence bits %#x (type %q)", ErrWireFormat, flags&^wfKnown, m.Type))
	}
	if flags&wfWorkerID != 0 {
		m.WorkerID = r.str()
	}
	if flags&wfSent != 0 {
		m.SentUnixNano = r.i64()
	}
	if flags&wfTaskDelay != 0 {
		m.TaskDelayNs = r.i64()
	}
	if flags&wfCRC != 0 {
		m.CRC = r.u32()
	}
	if flags&wfSpans != 0 {
		if n := r.count(6); n > 0 {
			m.Spans = make([]RemoteSpan, n)
			for i := range m.Spans {
				m.Spans[i] = wireGetSpan(&r)
			}
		}
	}
	if flags&wfTelemetry != 0 {
		m.Telemetry = wireGetTelemetry(&r)
	}
	if flags&wfFreeze != 0 {
		m.Freeze = wireGetFreeze(&r)
	}
	if flags&wfDump != 0 {
		m.Dump = wireGetDump(&r)
	}
	if flags&wfTasks != 0 {
		// A task is at least 6 bytes (two strings, a blob, two varints,
		// a trace flag) and a result 8; the floors bound allocation from
		// a corrupt count.
		if n := r.count(6); n > 0 {
			m.Tasks = make([]Task, n)
			for i := range m.Tasks {
				m.Tasks[i] = wireGetTask(&r)
			}
		}
	}
	if flags&wfResults != 0 {
		if n := r.count(8); n > 0 {
			m.Results = make([]Result, n)
			for i := range m.Results {
				m.Results[i] = wireGetResult(&r)
			}
		}
	}
	if r.err != nil {
		return message{}, obs.Wrap(fmt.Errorf("%w (type %q)", ErrWireFormat, m.Type))
	}
	if r.remaining() != 0 {
		return message{}, obs.Wrap(fmt.Errorf("%w: %d trailing bytes (type %q)", ErrWireFormat, r.remaining(), m.Type))
	}
	return m, nil
}

// WireFrameSplit reports how transport-level wrappers (the chaos
// injection layer) should cut buf at the next frame boundary. For a
// buffered byte stream beginning with a binary frame header it returns
// the total frame length once enough bytes are present: (0, false) means
// the header or body is still incomplete — wait for more bytes. A header
// that is present but invalid (bad varint, absurd length) returns
// (len(buf), true): the stream is already garbage, flush it through and
// let the codec reject it.
func WireFrameSplit(buf []byte) (int, bool) {
	if len(buf) == 0 || buf[0] != WireMagic {
		return 0, false
	}
	if len(buf) < 3 {
		return 0, false
	}
	n, used := binary.Uvarint(buf[2:])
	if used == 0 {
		if len(buf) >= 2+binary.MaxVarintLen64 {
			return len(buf), true // unterminated varint: garbage
		}
		return 0, false
	}
	if used < 0 || n > MaxFrameBytes {
		return len(buf), true // overflow or absurd length: garbage
	}
	total := 2 + used + int(n)
	if len(buf) < total {
		return 0, false
	}
	return total, true
}

// ShiftBinaryStamps rewrites the absolute clock stamps of one complete
// frame by deltaNs — the chaos layer's clock-skew fault. Shifted fields
// are the envelope send stamp (SentUnixNano), remote span starts
// (StartUnixNano) and flight-dump event stamps (T0, T1), moved as int64
// nanoseconds with no float in between. Relative fields (TaskDelayNs, durations, timeout budgets) and
// the CRC-guarded identity fields are untouched, so a skewed frame still
// passes its checksum — skew stays a timing condition, not corruption. A
// frame that does not decode is returned unchanged (it is already
// garbage; the codec will reject it).
func ShiftBinaryStamps(frame []byte, deltaNs int64) []byte {
	total, ok := WireFrameSplit(frame)
	if !ok || total != len(frame) || frame[1] != wireVersion {
		return frame
	}
	_, used := binary.Uvarint(frame[2:])
	m, err := decodeWireBody(frame[2+used:], false)
	if err != nil {
		return frame
	}
	shift := func(v *int64) {
		if *v != 0 {
			*v += deltaNs
		}
	}
	shift(&m.SentUnixNano)
	for i := range m.Spans {
		shift(&m.Spans[i].StartUnixNano)
	}
	if m.Dump != nil {
		for i := range m.Dump.Events {
			shift(&m.Dump.Events[i].T0)
			shift(&m.Dump.Events[i].T1)
		}
	}
	return appendWireFrame(nil, &m)
}
