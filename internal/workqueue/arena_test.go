package workqueue

// The worker's codec decodes task payloads as views of its one receive
// buffer. These tests hold the worker loop to the Executor contract that
// makes that safe: under -race, a budgeted executor that outlives its
// budget still reads its own bytes while the next frame lands, an echo
// executor's outputs survive consecutive frames, and the receive path's
// allocations do not grow with payload size.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// aliasEcho answers with the payload itself: its output aliases the
// receive buffer until the result frame is sent.
func aliasEcho(_ context.Context, payload []byte) ([]byte, error) { return payload, nil }

// TestArenaBudgetedExecutorKeepsPayload: an executor that ignores its
// budget keeps reading its payload while the worker, past the budget,
// receives and runs the next task into the same buffer. It must see its
// own bytes throughout, and -race must see no conflicting access.
func TestArenaBudgetedExecutorKeepsPayload(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slow, fast := bytes.Repeat([]byte{'a'}, 4096), bytes.Repeat([]byte{'b'}, 4096)
	fastRan, slowDone := make(chan struct{}), make(chan error, 1)
	exec := func(_ context.Context, payload []byte) ([]byte, error) {
		if payload[0] == 'b' {
			select {
			case <-fastRan:
			default:
				close(fastRan)
			}
			return payload, nil
		}
		for ran := false; !ran; runtime.Gosched() {
			select {
			case <-fastRan:
				ran = true
			default:
			}
			if !bytes.Equal(payload, slow) {
				slowDone <- errors.New("the payload changed under its executor")
				return nil, nil
			}
		}
		slowDone <- nil
		return nil, nil
	}
	m := NewMaster(MasterConfig{Seed: 1, ResultBuffer: 16})
	p := NewPool(m, exec)
	p.ExecTimeout = 20 * time.Millisecond
	defer p.Close()
	// One job, so the tasks dispatch in submit order: the slow one first.
	for i, payload := range [][]byte{slow, fast, fast} {
		if err := m.Submit(Task{ID: fmt.Sprintf("t%d", i), JobID: "job", Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	p.Resize(ctx, 1)
	for _, r := range collect(t, m, 3) {
		switch {
		case r.TaskID == "t0" && !strings.Contains(r.Err, "budget"):
			t.Errorf("slow task: want a budget timeout, got output %d bytes, err %q", len(r.Output), r.Err)
		case r.TaskID != "t0" && (r.Err != "" || !bytes.Equal(r.Output, fast)):
			t.Errorf("task %s: err %q, output %.8q…", r.TaskID, r.Err, r.Output)
		}
	}
	select {
	case err := <-slowDone:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the slow executor never saw the next task run")
	}
}

// TestArenaEchoAcrossBatches: an executor whose output is its payload
// gets every output back intact across consecutive frames of different
// task counts and payload sizes, lock-step and batched.
func TestArenaEchoAcrossBatches(t *testing.T) {
	for _, batch := range []int{1, 8} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			m := NewMaster(MasterConfig{Seed: 1, ResultBuffer: 64, BatchSize: batch})
			p := NewPool(m, aliasEcho)
			defer p.Close()
			p.Resize(ctx, 1)
			want := make(map[string][]byte)
			n := 0
			for wave, count := range []int{1, 5, 8, 3, 12, 2} {
				for i := 0; i < count; i++ {
					id := fmt.Sprintf("w%d/%d", wave, i)
					want[id] = bytes.Repeat([]byte{byte('a' + n%26)}, 1+(n*977)%6000)
					if err := m.Submit(Task{ID: id, JobID: "job", Payload: want[id]}); err != nil {
						t.Fatal(err)
					}
					n++
				}
				for _, r := range collect(t, m, count) {
					if r.Err != "" || !bytes.Equal(r.Output, want[r.TaskID]) {
						t.Fatalf("task %s: err %q, %d output bytes, want %d of %q", r.TaskID, r.Err, len(r.Output), len(want[r.TaskID]), want[r.TaskID][0])
					}
				}
			}
		})
	}
}

// loopConn serves the same bytes to its reader over and over.
type loopConn struct {
	net.Conn
	b   []byte
	off int
}

func (c *loopConn) Read(p []byte) (int, error) {
	n := copy(p, c.b[c.off:])
	c.off = (c.off + n) % len(c.b)
	return n, nil
}

// batchFrame is an 8-task traced batch frame with payloads of size bytes.
func batchFrame(size int) []byte {
	m := benchTaskBatchMsg(8)
	for i := range m.Tasks {
		m.Tasks[i].Payload = bytes.Repeat([]byte{byte('a' + i)}, size)
	}
	m.CRC = m.checksum()
	return appendWireFrame(nil, &m)
}

// TestArenaRecvAllocs: a worker's recv of an 8-task batch allocates as
// often for 1 KB payloads as for 64 KB ones, and eight times fewer than
// the master's copying recv — the payloads cost no allocation at all.
func TestArenaRecvAllocs(t *testing.T) {
	allocs := func(size int, alias bool) float64 {
		c := newCodec(&loopConn{b: batchFrame(size)})
		c.alias = alias
		recv := func() {
			if _, err := c.recv(); err != nil {
				t.Fatal(err)
			}
		}
		recv() // size the arena
		return testing.AllocsPerRun(50, recv)
	}
	small, large := allocs(1<<10, true), allocs(64<<10, true)
	if small != large {
		t.Errorf("recv of an 8-task batch: %v allocations at 1 KB payloads, %v at 64 KB", small, large)
	}
	if copied := allocs(64<<10, false); copied < large+8 {
		t.Errorf("recv of an 8-task batch at 64 KB: %v allocations aliasing, %v copying; want 8 fewer", large, copied)
	}
}

// TestArenaCap: a frame over arenaBytes is read into a buffer of its own,
// so the arena stays within its cap and the big frame's payload survives
// the next recv.
func TestArenaCap(t *testing.T) {
	big, small := batchFrame(arenaBytes/4), batchFrame(1<<10)
	c := newCodec(&loopConn{b: append(big, small...)})
	c.alias = true
	m, err := c.recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.recv(); err != nil {
		t.Fatal(err)
	}
	if cap(c.arena) > arenaBytes {
		t.Errorf("arena grew to %d bytes, cap %d", cap(c.arena), arenaBytes)
	}
	if got := m.Tasks[7].Payload; len(got) != arenaBytes/4 || bytes.Count(got, []byte{'h'}) != len(got) {
		t.Error("the big frame's payload changed under the next recv")
	}
}
