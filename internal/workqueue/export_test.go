package workqueue

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// pipePair returns the master and worker ends of an in-process
// connection.
func pipePair() (masterSide, workerSide net.Conn) { return net.Pipe() }

// newCodec is a codec on conn probing into the process's recorder.
func newCodec(conn net.Conn) *codec { return newCodecWith(conn, flightrec.Active()) }

// shortenGather sets the gather step's wait for worker replies to d for
// the rest of the test.
func shortenGather(t *testing.T, d time.Duration) {
	old := gatherTimeout
	gatherTimeout = d
	t.Cleanup(func() { gatherTimeout = old })
}

// ErrModesDiffer is DecodeFrame's answer for a frame that the copying and
// the aliasing recv decode into different messages or errors.
var ErrModesDiffer = errors.New("copying and aliasing recv disagree")

// DecodeFrame runs one frame through the production codec's recv path in
// both its modes — copying, as the master reads, and aliasing the receive
// buffer, as a worker reads — and returns the error they agree on. It
// exists for external test packages (FuzzDecode lives outside the package
// because its corpus is built with internal/chaos, which imports
// workqueue — an in-package import would cycle).
func DecodeFrame(frame []byte) error {
	copied, err := decodeFrame(frame, false)
	aliased, aerr := decodeFrame(frame, true)
	if !reflect.DeepEqual(copied, aliased) || fmt.Sprint(err) != fmt.Sprint(aerr) {
		return fmt.Errorf("%w: %+v, %v against %+v, %v", ErrModesDiffer, copied, err, aliased, aerr)
	}
	return err
}

func decodeFrame(frame []byte, alias bool) (message, error) {
	a, b := net.Pipe()
	defer func() { _ = a.Close(); _ = b.Close() }()
	go func() {
		_, _ = a.Write(frame)
		_ = a.Close() // EOF ends a frame that promises more bytes than it has
	}()
	c := newCodec(b)
	c.alias = alias
	return c.recv()
}

// Wire constants for the frames external tests build by hand.
const (
	WireVersion     = wireVersion
	TypeResultBatch = byte(msgResultBatch)
	FlagResults     = wfResults
)

// EncodeTaskFrameBinary produces one complete wire frame, CRC stamped,
// carrying one task as lock-step dispatch sends it — pristine material
// for external tests to mangle.
func EncodeTaskFrameBinary(id, job string, payload []byte) []byte {
	m := message{Type: msgTaskBatch, Tasks: []Task{{ID: id, JobID: job, Payload: payload}}}
	m.CRC = m.checksum()
	return appendWireFrame(nil, &m)
}

// EncodeResultBatchFrameBinary produces one complete wire frame carrying
// a batch of n synthetic results — material for the frame-cap and
// oversize-batch-count tests.
func EncodeResultBatchFrameBinary(n, payloadBytes int) []byte {
	m := message{Type: msgResultBatch, WorkerID: "w"}
	for i := 0; i < n; i++ {
		m.Results = append(m.Results, Result{
			TaskID: "t", JobID: "j", WorkerID: "w",
			Output: make([]byte, payloadBytes),
		})
	}
	m.CRC = m.checksum()
	return appendWireFrame(nil, &m)
}

// Stats returns a snapshot of the named job's progress (zero value when
// unknown).
func (m *Master) Stats(jobID string) JobStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if js, ok := m.stats[jobID]; ok {
		return *js
	}
	return JobStats{JobID: jobID}
}

// taskStateSize reports how many task records the master holds; tests
// assert it drains to zero so long-lived masters cannot leak.
func (m *Master) taskStateSize() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.tasks)
}

// next blocks until a task is available (or ctx is done / scheduler
// closed) and returns it. It leases a pooled waiter per call; the master
// holds a waiter per worker connection instead (see getWaiter) so its
// idle-dispatch loop is allocation-free.
func (s *scheduler) next(ctx context.Context) (Task, bool) {
	w := s.getWaiter()
	q, ok := w.next(ctx)
	s.putWaiter(w)
	return q.Task, ok
}

// push queues a bare task, as a first submission with telemetry off
// would.
func (s *scheduler) push(t Task) { s.put(queued{Task: t}, false) }

// dispatchNext draws the next queued task and records it in flight on
// worker w, as a handler's dispatch does.
func (m *Master) dispatchNext(t *testing.T, w string) Task {
	t.Helper()
	q, ok := m.sched.tryNext()
	if !ok {
		t.Fatal("no task queued")
	}
	m.trackInflight(q, w)
	return q.Task
}

// jobStateSizes reports internal map sizes (tests assert they drain):
// queues counts jobs with pending tasks, priorities every known job.
func (s *scheduler) jobStateSizes() (queues, priorities int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order), len(s.jobs)
}
