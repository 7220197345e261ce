// Package workqueue is a lightweight master/worker execution engine in the
// spirit of the CCTools Work Queue system the paper builds SSTD on (§IV-A2):
// a master process owns a pool of prioritized tasks; workers — in-process
// over net.Pipe or remote over TCP — call back to the master, pull tasks,
// execute them and return results. The pool is elastic: workers may join
// and leave at any time, and job priorities may be retuned while tasks are
// in flight (the paper's Local Control Knob).
//
// Beyond the task/result exchange, workers send heartbeats: periodic
// liveness pings, some carrying a snapshot of the worker's metrics
// registry (task counts, exec-time histogram, connection bytes, runtime
// stats) that feeds the master's per-worker health registry (cluster.go)
// and its time-series store.
//
// Every message travels as one length-prefixed binary frame (wire.go);
// there is no second format and no negotiation. This file holds the
// message envelope, its integrity checksum and the codec that moves
// frames over a connection.
package workqueue

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// Task is one unit of work. Tasks belong to jobs (the paper's TD jobs); a
// job's priority governs how often its tasks are picked.
type Task struct {
	ID      string
	JobID   string
	Payload []byte
	// Span optionally links the task under a submitter-side trace span
	// (the TD job's root span), so the master's queue/execute spans nest
	// correctly in the job timeline.
	Span int64
	// Trace carries the distributed trace context across the wire; nil
	// disables worker-side stage spans for this task (old submitters).
	Trace *TraceContext
	// TimeoutNs is the execution budget the worker enforces for this
	// task (zero = none). The master stamps it from its TaskTimeout so
	// a hung executor self-reports a timeout result before the master's
	// own deadline severs the connection.
	TimeoutNs int64
}

// Result is the outcome of one task execution.
type Result struct {
	TaskID   string
	JobID    string
	WorkerID string
	Output   []byte
	Err      string
	// ErrStage names the execution stage that produced Err (see
	// StageDecode / StageExec / StageEncode); empty on success.
	ErrStage string
	// ErrTrace is the worker-side error return trace (obs.Wrap frames,
	// origin first, " -> "-joined): the path Err took through the worker
	// before it was reported. Diagnostic only — like the clock stamps it
	// is excluded from the CRC, so a frame that damages only the trace
	// still delivers its result.
	ErrTrace string
	Elapsed  time.Duration
	// Retried is the master's mark, never on the wire, that the task was
	// requeued (so maybe sent more than once) or quarantined before this
	// result: a copy of its payload may still be on its way to a worker.
	Retried bool
}

// msgType is a message's kind and, as a number, its type byte on the
// wire: values are part of the format, so new kinds are appended.
type msgType byte

// Message types exchanged between master and worker, one per concern.
const (
	msgHello msgType = iota + 1
	// msgTaskBatch carries one or more tasks (master→worker) — lock-step
	// dispatch is a batch of one; msgResultBatch carries their results
	// back (worker→master), in dispatch order.
	msgTaskBatch
	msgResultBatch
	// msgHeartbeat is a worker liveness ping. It may arrive at any time,
	// including while a task is executing, and may carry a telemetry ship.
	msgHeartbeat
	msgShutdown
	// msgFreeze is the master's FreezeRings broadcast: every worker
	// snapshots its flight-recorder rings and replies with msgFlightDump.
	// A worker may also send msgFlightDump unsolicited (Seq 0, Trigger
	// set) when its own recorder trips, which trips the master's.
	msgFreeze
	msgFlightDump
)

// wireTypeName names every message type. The names are hashed into the
// frame checksum, so renaming one invalidates frames already encoded; a
// type byte without a name here is rejected by the decoder.
var wireTypeName = [...]string{
	msgHello:       "hello",
	msgTaskBatch:   "task-batch",
	msgResultBatch: "result-batch",
	msgHeartbeat:   "heartbeat",
	msgShutdown:    "shutdown",
	msgFreeze:      "freeze",
	msgFlightDump:  "flight-dump",
}

// String returns the type's name, or "" for a byte that names no type.
func (t msgType) String() string {
	if int(t) < len(wireTypeName) {
		return wireTypeName[t]
	}
	return ""
}

// FreezeRequest asks a worker for its flight-recorder snapshot, part of
// the master's gather step.
type FreezeRequest struct {
	// Seq correlates the reply with one gather round (never 0).
	Seq int64
	// Trigger/Detail describe why the master is collecting.
	Trigger string
	Detail  string
	// WindowNs bounds how far back the snapshot reaches (0 = the
	// worker recorder's full retained history).
	WindowNs int64
}

// FlightDump is a worker's flight-recorder snapshot shipped to the
// master. It names no host: the master files it under the connection it
// arrived on. Event timestamps are on the worker's clock; the master
// applies that connection's skew estimate when merging.
type FlightDump struct {
	Seq     int64
	Trigger string
	Detail  string
	// Events is the snapshot payload. Like telemetry it is excluded from
	// the CRC: a damaged diagnostic dump is not worth severing the
	// connection over.
	Events []flightrec.Event
}

// message is the wire envelope: one binary frame each (wire.go).
type message struct {
	Type     msgType
	WorkerID string
	// SentUnixNano stamps the sender's clock as the message goes on the
	// wire. On a task-batch it is the master's send time; the worker
	// reports receive time minus it back as TaskDelayNs, the
	// master→worker leg of the clock-skew estimate. On worker messages the
	// master's receive time minus it is the worker→master leg. Offsetting
	// the two cancels transit and leaves clock skew (NTP's derivation);
	// summing them estimates the RTT. Both ride on heartbeats and results,
	// so skew converges even for workers that never heartbeat.
	SentUnixNano int64
	TaskDelayNs  int64
	// Spans are finished worker-side stage spans being shipped to the
	// master (on results and heartbeats alike).
	Spans []RemoteSpan
	// Telemetry rides on every fifth heartbeat: the worker's
	// registry snapshot, feeding the master's health registry and
	// time-series store. Excluded from the CRC like the clock stamps:
	// telemetry damage is not worth a disconnect, and the next ship,
	// absolute like every ship, sets it right.
	Telemetry *obs.RegistrySnapshot
	// Freeze rides on msgFreeze (master→worker); Dump on msgFlightDump
	// (worker→master).
	Freeze *FreezeRequest
	Dump   *FlightDump
	// Tasks rides on msgTaskBatch, Results on msgResultBatch. Both are
	// CRC-guarded, element by element.
	Tasks   []Task
	Results []Result
	// CRC guards the corruption-sensitive fields (message type, task and
	// result identity, payloads) against frames that are damaged in
	// flight yet still decode — without it a single flipped bit inside a
	// payload delivers silently wrong data. Clock stamps and telemetry
	// are deliberately excluded: a peer with a skewed clock is a timing
	// condition, not corruption. recv checks it on every frame.
	CRC uint32
}

// checksum computes the integrity check over the guarded fields. It
// hashes decoded field values, not wire bytes, so a frame that is decoded
// and re-encoded (the chaos layer's clock-skew rewrite) keeps its CRC.
func (m *message) checksum() uint32 {
	h := crc32.NewIEEE()
	write := func(s string) { _, _ = io.WriteString(h, s); _, _ = h.Write([]byte{0}) }
	blob := func(b []byte) { _, _ = h.Write(b); _, _ = h.Write([]byte{0}) }
	write(m.Type.String())
	write(m.WorkerID)
	for i := range m.Tasks {
		t := &m.Tasks[i]
		write("task")
		write(t.ID)
		write(t.JobID)
		blob(t.Payload)
	}
	for i := range m.Results {
		r := &m.Results[i]
		write("result")
		write(r.TaskID)
		write(r.JobID)
		write(r.WorkerID)
		write(r.Err)
		write(r.ErrStage)
		blob(r.Output)
	}
	return h.Sum32()
}

// ErrChecksum is returned by recv for a frame whose CRC does not match
// its guarded content.
var ErrChecksum = errors.New("workqueue: frame checksum mismatch")

// codec frames messages over a connection in the length-prefixed binary
// wire format (wire.go). Sends are serialized by a mutex so a worker's
// heartbeat goroutine and its task loop can share the connection; recv
// is single-reader. Wire bytes are counted in both directions for the
// worker's connection-byte gauges.
type codec struct {
	conn     net.Conn
	r        *bufio.Reader
	w        io.Writer
	sendMu   sync.Mutex
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	// fr probes frame encode/decode and CRC phases into the flight
	// recorder. The send side is mutex-serialized and recv is
	// single-reader, so one ring per codec keeps writers private.
	fr *flightrec.Ring
	// arena is the connection's receive buffer. With alias set recv decodes
	// task payloads and result outputs as views of it, valid until the next
	// recv: only a worker sets it, whose loop is recv, execute, send, recv.
	arena []byte
	alias bool
}

// arenaBytes caps a codec's receive buffer: a larger frame gets a buffer
// of its own, so no connection keeps a MaxFrameBytes arena.
const arenaBytes = 1 << 20

func newCodec(conn net.Conn) *codec {
	return newCodecWith(conn, flightrec.Active())
}

// newCodecWith builds a codec probing into an explicit recorder — the
// hook that lets each worker of an in-process pool keep its frame-leg
// events in its own private recorder, so the master's gather step gets
// true per-host provenance even without process isolation.
func newCodecWith(conn net.Conn, rec *flightrec.Recorder) *codec {
	c := &codec{conn: conn, fr: rec.NewRing("codec")}
	c.r = bufio.NewReader(countingReader{conn, &c.bytesIn})
	c.w = countingWriter{conn, &c.bytesOut}
	return c
}

// flightParent links a frame's codec events under the span that owns the
// task it carries; telemetry-only frames stay unparented.
func (m *message) flightParent() int64 {
	if len(m.Tasks) > 0 && m.Tasks[0].Trace != nil {
		return m.Tasks[0].Trace.ParentSpanID
	}
	return 0
}

// send writes one message as one frame, stamping its integrity checksum.
func (c *codec) send(m message) error {
	parent := m.flightParent()
	tp := c.fr.Start()
	m.CRC = m.checksum()
	tp = c.fr.Probe(flightrec.ProbeCodecCRC, tp, 0, parent)
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	bp := wireBufPool.Get().(*[]byte)
	frame := appendWireFrame((*bp)[:0], &m)
	_, err := c.w.Write(frame)
	*bp = frame[:0]
	wireBufPool.Put(bp)
	if err != nil {
		return obs.Wrap(fmt.Errorf("workqueue: send %s: %w", m.Type, err))
	}
	c.fr.Probe(flightrec.ProbeCodecEncode, tp, int64(len(frame)), parent)
	return nil
}

// MaxFrameBytes bounds one wire frame. A corrupt or malicious peer that
// announces an absurd body length would otherwise drive an allocation of
// that size; past this cap recv fails and the connection is dropped by
// the caller. Generous enough for any legitimate task payload.
const MaxFrameBytes = 32 << 20

// ErrFrameTooLarge is returned by recv when a frame's announced length
// exceeds MaxFrameBytes.
var ErrFrameTooLarge = errors.New("workqueue: frame exceeds size limit")

// recv reads the next frame into the arena, decodes it and checks its
// CRC. Every error is fatal to the connection: after a bad magic
// byte, version, length or body the stream has no frame boundary left to
// resynchronise on. A frame announcing more than MaxFrameBytes is
// rejected with ErrFrameTooLarge before any of its body is buffered.
func (c *codec) recv() (message, error) {
	magic, err := c.r.ReadByte()
	if err != nil {
		return message{}, obs.Wrap(err)
	}
	if magic != WireMagic {
		return message{}, obs.Wrap(fmt.Errorf("%w: first byte %#02x is not the frame magic", ErrWireFormat, magic))
	}
	version, err := c.r.ReadByte()
	if err != nil {
		return message{}, obs.Wrap(fmt.Errorf("%w: frame version: %v", ErrWireFormat, err))
	}
	if version != wireVersion {
		return message{}, obs.Wrap(fmt.Errorf("%w: unsupported version %d", ErrWireFormat, version))
	}
	n, err := binary.ReadUvarint(c.r)
	if err != nil {
		return message{}, obs.Wrap(fmt.Errorf("%w: frame length: %v", ErrWireFormat, err))
	}
	if n > MaxFrameBytes {
		return message{}, obs.Wrap(ErrFrameTooLarge)
	}
	var body []byte
	if n <= arenaBytes {
		c.arena = slices.Grow(c.arena[:0], int(n))[:n]
		body = c.arena
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(c.r, body); err != nil {
		return message{}, obs.Wrap(fmt.Errorf("workqueue: read frame: %w", err))
	}
	tp := c.fr.Start()
	m, err := decodeWireBody(body, c.alias)
	if err != nil {
		return message{}, err
	}
	parent := m.flightParent()
	tp = c.fr.Probe(flightrec.ProbeCodecDecode, tp, int64(len(body))+3, parent)
	if m.CRC != m.checksum() {
		return message{}, obs.Wrap(fmt.Errorf("%w (type %q)", ErrChecksum, m.Type))
	}
	c.fr.Probe(flightrec.ProbeCodecCRC, tp, 0, parent)
	return m, nil
}

func (c *codec) close() error { return c.conn.Close() }

// countingReader / countingWriter tap the connection byte counters.
type countingReader struct {
	r net.Conn
	n *atomic.Int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

type countingWriter struct {
	w net.Conn
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}
