package workqueue

import (
	"context"
	"encoding/binary"
	"maps"
	"net"
	"strings"
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
// passes. It returns the master's registry once the worker's first ship
// has arrived.
func joinShippingWorker(t *testing.T, reg *obs.Registry, fault func(frame []byte, m message) []byte) *obs.Registry {
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
	waitFor(t, func() bool { return len(remoteOf(mreg).Counters) > 0 }, "the worker's first ship")
	return mreg
}

// remoteOf is the worker's counters and gauges as the master's registry
// holds them under the worker's label, keyed by the names it ships them
// under.
func remoteOf(mreg *obs.Registry) obs.RegistrySnapshot {
	s, out := mreg.Snapshot(), obs.RegistrySnapshot{Counters: map[string]int64{}, Gauges: map[string]float64{}}
	label := workerLabel("", shipWorkerID)
	for name, v := range s.Counters {
		if base, ok := strings.CutSuffix(name, label); ok {
			out.Counters[base] = v
		}
	}
	for name, v := range s.Gauges {
		if base, ok := strings.CutSuffix(name, label); ok {
			out.Gauges[base] = v
		}
	}
	return out
}

// TestLostTelemetryShipRecoversOnNext: a heartbeat carrying telemetry is
// lost on the way. The next ship must bring the master's view of the
// worker, its counters under the worker's label, back to the worker's
// own registry.
func TestLostTelemetryShipRecoversOnNext(t *testing.T) {
	reg := obs.NewRegistry()
	var dropped atomic.Bool
	mreg := joinShippingWorker(t, reg, func(frame []byte, _ message) []byte {
		if dropped.CompareAndSwap(false, true) {
			return nil
		}
		return frame
	})
	reg.Counter(mWorkerExecuted).Add(5)
	tasks := mreg.Counter(workerLabel("wq_worker_tasks_total", shipWorkerID))
	waitFor(t, func() bool {
		return dropped.Load() && maps.Equal(remoteOf(mreg).Counters, reg.Snapshot().Counters) && tasks.Value() == 5
	}, "the ship after the lost one to match the worker registry")
}

// TestDamagedTelemetryShipRecoversOnNext: one telemetry frame arrives
// with a gauge changed in flight; telemetry is outside the frame CRC, so
// it decodes. The master's gauge under the worker's label is wrong for
// that ship and right again after the next. (A damaged counter is counted
// by the reset rule instead, as Prometheus counts one that goes down.)
func TestDamagedTelemetryShipRecoversOnNext(t *testing.T) {
	reg := obs.NewRegistry()
	const queueDepth = "queue_depth"
	var damaged atomic.Bool
	// Later ships wait until the test has seen the damaged one land.
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	mreg := joinShippingWorker(t, reg, func(frame []byte, msg message) []byte {
		if damaged.CompareAndSwap(false, true) {
			msg.Telemetry.Gauges[queueDepth] += 100
			return appendWireFrame(nil, &msg)
		}
		<-release
		return frame
	})
	// Set before the count that arms the fault: a snapshot reads counters
	// first, so the damaged ship carries it.
	reg.Gauge(queueDepth).Set(7)
	reg.Counter(mWorkerExecuted).Add(5)
	waitFor(t, func() bool { return remoteOf(mreg).Gauges[queueDepth] == 107 }, "the damaged ship")
	releaseOnce()
	waitFor(t, func() bool { return remoteOf(mreg).Gauges[queueDepth] == 7 },
		"the ship after the damaged one to match the worker registry")
}
