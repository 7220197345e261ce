package workqueue

import (
	"context"
	"encoding/binary"
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
)

// frameConn passes a worker's writes to the master one whole frame at a
// time, split with WireFrameSplit as chaos.Conn does, through edit: it
// returns the frame to write, or nil to drop it. The codec serializes
// its writes, so Write needs no lock of its own.
type frameConn struct {
	net.Conn
	edit func(frame []byte) []byte
	buf  []byte
}

func (c *frameConn) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	for {
		end, ok := WireFrameSplit(c.buf)
		if !ok {
			return len(p), nil
		}
		if out := c.edit(c.buf[:end]); out != nil {
			if _, err := c.Conn.Write(out); err != nil {
				return 0, err
			}
		}
		c.buf = c.buf[end:]
	}
}

const shipWorkerID = "ship-w"

// joinShippingWorker joins a real Worker to a fresh master through a
// frameConn. The worker ships reg, which the test holds, on every
// heartbeat, a few milliseconds apart. Each telemetry frame that reports
// a nonzero task count goes through fault, decoded; every other frame
// passes. It returns once the worker's first ship has arrived, with the
// master and the master's registry.
func joinShippingWorker(t *testing.T, reg *obs.Registry, fault func(frame []byte, m message) []byte) (*Master, *obs.Registry) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	mreg := obs.NewRegistry()
	m := NewMaster(MasterConfig{Metrics: mreg})
	edit := func(frame []byte) []byte {
		_, used := binary.Uvarint(frame[2:])
		msg, err := decodeWireBody(frame[2+used:], false)
		if err != nil || msg.Telemetry == nil || msg.Telemetry.Counters[mWorkerExecuted] == 0 {
			return frame
		}
		return fault(frame, msg)
	}
	mconn, wconn := pipePair()
	done := make(chan struct{}, 2)
	go func() { _ = m.HandleWorker(ctx, mconn); done <- struct{}{} }()
	go func() {
		w := &Worker{ID: shipWorkerID, Exec: echoExec, Metrics: reg, HeartbeatEvery: 2 * time.Millisecond, statsEvery: 1}
		_ = w.Run(ctx, &frameConn{Conn: wconn, edit: edit})
		done <- struct{}{}
	}()
	t.Cleanup(func() { cancel(); <-done; <-done })
	waitFor(t, func() bool { return remoteOf(m) != nil }, "the worker's first ship")
	return m, mreg
}

// remoteOf is the worker's registry as the master's health row shows it.
func remoteOf(m *Master) *obs.RegistrySnapshot {
	h, _ := findWorker(m.ClusterHealth(), shipWorkerID)
	return h.Remote
}

// TestLostTelemetryShipRecoversOnNext: a heartbeat carrying telemetry is
// lost on the way. The next ship must bring the master's view of the
// worker, the health row's Remote and the per-worker task counter, back
// to the worker's own registry.
func TestLostTelemetryShipRecoversOnNext(t *testing.T) {
	reg := obs.NewRegistry()
	var dropped atomic.Bool
	m, mreg := joinShippingWorker(t, reg, func(frame []byte, _ message) []byte {
		if dropped.CompareAndSwap(false, true) {
			return nil
		}
		return frame
	})
	reg.Counter(mWorkerExecuted).Add(5)
	tasks := mreg.Counter(workerLabel("wq_worker_tasks_total", shipWorkerID))
	waitFor(t, func() bool {
		r := remoteOf(m)
		return dropped.Load() && maps.Equal(r.Counters, reg.Snapshot().Counters) && tasks.Value() == 5
	}, "the ship after the lost one to match the worker registry")
}

// TestDamagedTelemetryShipRecoversOnNext: one telemetry frame arrives
// with a counter changed in flight; telemetry is outside the frame CRC,
// so it decodes. The master's Remote is wrong for that ship and right
// again after the next.
func TestDamagedTelemetryShipRecoversOnNext(t *testing.T) {
	reg := obs.NewRegistry()
	var damaged atomic.Bool
	// Later ships wait until the test has seen the damaged one land.
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	m, _ := joinShippingWorker(t, reg, func(frame []byte, msg message) []byte {
		if damaged.CompareAndSwap(false, true) {
			msg.Telemetry.Counters[mWorkerExecuted] += 100
			return appendWireFrame(nil, &msg)
		}
		<-release
		return frame
	})
	reg.Counter(mWorkerExecuted).Add(5)
	waitFor(t, func() bool { return remoteOf(m).Counters[mWorkerExecuted] == 105 }, "the damaged ship")
	releaseOnce()
	waitFor(t, func() bool { return maps.Equal(remoteOf(m).Counters, reg.Snapshot().Counters) },
		"the ship after the damaged one to match the worker registry")
}
