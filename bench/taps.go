package main

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/social-sensing/sstd/internal/workqueue"
)

// taps are the benchmark's own probes at the two public injection points
// of the cluster: the task executor (dtm.Config.WrapExec) and each
// worker's connection (dtm.Config.WrapConn / workqueue.Pool.WrapConn).
// They see only call boundaries and lengths; payload bytes stay opaque.
type taps struct {
	// base is the zero of every instant the taps record.
	base time.Time

	mu sync.Mutex
	// calls, busy, payloadBytes, outputBytes and entrySum accumulate over
	// every executor call since construction.
	calls        int64
	busy         time.Duration
	payloadBytes int64
	outputBytes  int64
	entrySum     float64 // sum of entry instants, ns since base
	// firstEntry and lastExit bracket the executor calls since resetSpan.
	firstEntry, lastExit time.Duration

	// Bytes and Write calls seen on the master end of every connection:
	// m2w is what the master wrote, w2m what it read.
	m2wBytes, w2mBytes, m2wFrames atomic.Int64
	// w2mFrames counts Write calls on the worker end.
	w2mFrames atomic.Int64
}

func newTaps() *taps { return &taps{base: time.Now()} }

func (t *taps) wrapExec(next workqueue.Executor) workqueue.Executor {
	return func(ctx context.Context, payload []byte) ([]byte, error) {
		entry := time.Since(t.base)
		out, err := next(ctx, payload)
		exit := time.Since(t.base)
		t.mu.Lock()
		t.calls++
		t.busy += exit - entry
		t.payloadBytes += int64(len(payload))
		t.outputBytes += int64(len(out))
		t.entrySum += float64(entry)
		if t.firstEntry < 0 || entry < t.firstEntry {
			t.firstEntry = entry
		}
		if exit > t.lastExit {
			t.lastExit = exit
		}
		t.mu.Unlock()
		return out, err
	}
}

func (t *taps) resetSpan() {
	t.mu.Lock()
	t.firstEntry, t.lastExit = -1, 0
	t.mu.Unlock()
}

func (t *taps) span() (firstEntry, lastExit time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.firstEntry, t.lastExit
}

func (t *taps) wrapConn(master, worker net.Conn) (net.Conn, net.Conn) {
	return &countingConn{Conn: master, read: &t.w2mBytes, written: &t.m2wBytes, writes: &t.m2wFrames},
		&countingConn{Conn: worker, writes: &t.w2mFrames}
}

// countingConn counts the bytes and Write calls that cross a net.Conn. The
// codec issues one Write per frame, so Write calls count frames.
type countingConn struct {
	net.Conn
	read, written, writes *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.read != nil {
		c.read.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.written != nil {
		c.written.Add(int64(n))
	}
	c.writes.Add(1)
	return n, err
}
