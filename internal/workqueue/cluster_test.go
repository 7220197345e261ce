package workqueue

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
)

// findWorker returns the health row for id, if present.
func findWorker(rows []WorkerHealth, id string) (WorkerHealth, bool) {
	for _, h := range rows {
		if h.ID == id {
			return h, true
		}
	}
	return WorkerHealth{}, false
}

// TestSilentWorkerMarkedDeadAndTaskRequeued is the regression test for
// the silent-failure hole: a worker that stops heartbeating mid-task
// while holding its TCP connection open used to hang the master forever
// (nothing would ever error the blocking recv). With liveness enabled
// the master must walk it alive → suspect → dead, sever the connection,
// and requeue the in-flight task onto a live worker.
func TestSilentWorkerMarkedDeadAndTaskRequeued(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{
		ResultBuffer: 8,
		SuspectAfter: 40 * time.Millisecond,
		DeadAfter:    150 * time.Millisecond,
	})

	// A raw-codec worker: says hello, takes a task, then goes silent —
	// no result, no heartbeat, connection deliberately held open.
	mconn, wconn := pipePair()
	go func() { _ = m.HandleWorker(ctx, mconn) }()
	c := newCodec(wconn)
	if err := c.send(message{Type: msgHello, WorkerID: "silent"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(Task{ID: "t1", JobID: "j", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	msg, err := c.recv()
	if err != nil || msg.Type != msgTaskBatch {
		t.Fatalf("silent worker expected a task, got %+v, %v", msg, err)
	}

	// The monitor must pass through suspect before dead.
	sawSuspect, sawDead := false, false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !sawDead {
		if h, ok := findWorker(m.ClusterHealth(), "silent"); ok {
			switch h.State {
			case WorkerSuspect:
				sawSuspect = true
			case WorkerDead:
				sawDead = true
				if !strings.Contains(h.Reason, "heartbeat timeout") {
					t.Errorf("dead reason = %q, want heartbeat timeout", h.Reason)
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !sawSuspect || !sawDead {
		t.Fatalf("silent worker states: suspect=%t dead=%t, want both", sawSuspect, sawDead)
	}
	waitFor(t, func() bool { return m.WorkerCount() == 0 }, "silent worker eviction")

	// A healthy worker joins and must complete the requeued task.
	p := NewPool(m, echoExec)
	defer p.Close()
	p.Resize(ctx, 1)
	r := collect(t, m, 1)[0]
	if r.TaskID != "t1" || r.Err != "" {
		t.Errorf("requeued task result = %+v", r)
	}
}

// TestHeartbeatKeepsBusyWorkerAlive: heartbeats flow from a concurrent
// goroutine, so a worker stuck in a long Exec is distinguishable from a
// hung one and must not be evicted.
func TestHeartbeatKeepsBusyWorkerAlive(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{
		ResultBuffer: 4,
		SuspectAfter: 50 * time.Millisecond,
		DeadAfter:    120 * time.Millisecond,
	})
	mconn, wconn := pipePair()
	go func() { _ = m.HandleWorker(ctx, mconn) }()
	go func() {
		w := &Worker{
			ID:             "slowpoke",
			HeartbeatEvery: 10 * time.Millisecond,
			Exec: func(context.Context, []byte) ([]byte, error) {
				time.Sleep(400 * time.Millisecond) // well past DeadAfter
				return []byte("done"), nil
			},
		}
		_ = w.Run(ctx, wconn)
	}()
	if err := m.Submit(Task{ID: "t1", JobID: "j", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	r := collect(t, m, 1)[0]
	if r.Err != "" || string(r.Output) != "done" {
		t.Fatalf("slow-but-alive worker result = %+v", r)
	}
	h, ok := findWorker(m.ClusterHealth(), "slowpoke")
	if !ok || h.State != WorkerAlive {
		t.Errorf("slowpoke health = %+v, want alive", h)
	}
	if h.Heartbeats == 0 {
		t.Errorf("no heartbeats recorded for slowpoke")
	}
	if h.TasksCompleted != 1 || h.EWMAExecMs < 300 {
		t.Errorf("throughput estimates = completed %d ewma %.1fms, want 1 task ≥ 300ms",
			h.TasksCompleted, h.EWMAExecMs)
	}
}

// TestWorkerStatsAggregatedIntoMasterRegistry: a worker's telemetry
// ships must surface in the master's registry under per-worker labels —
// counters by delta, the exec histogram by per-bucket delta — and as the
// health row's rebuilt remote registry.
func TestWorkerStatsAggregatedIntoMasterRegistry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()
	m := NewMaster(MasterConfig{ResultBuffer: 16, Metrics: reg})
	mconn, wconn := pipePair()
	go func() { _ = m.HandleWorker(ctx, mconn) }()
	go func() {
		w := &Worker{
			ID:             "w-1",
			Exec:           echoExec,
			HeartbeatEvery: 5 * time.Millisecond,
			statsEvery:     1, // every heartbeat carries a telemetry ship
		}
		_ = w.Run(ctx, wconn)
	}()

	const n = 5
	for i := 0; i < n; i++ {
		if err := m.Submit(Task{ID: fmt.Sprintf("t%d", i), JobID: "j", Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, m, n)
	// Ships arrive on the heartbeat cadence; wait for the counters to
	// catch up with the completed tasks.
	waitFor(t, func() bool {
		return reg.Counter(`wq_worker_tasks_total{worker="w-1"}`).Value() >= n
	}, "per-worker task counter to reach n")

	s := reg.Snapshot()
	if got := s.Histograms[`wq_worker_exec_ms{worker="w-1"}`].Count; got < n {
		t.Errorf("labeled exec histogram count = %d, want >= %d", got, n)
	}
	if got := s.Gauges[`wq_worker_goroutines{worker="w-1"}`]; got <= 0 {
		t.Errorf("labeled goroutine gauge = %v, want > 0", got)
	}
	if got := s.Counters[`wq_worker_bytes_out_total{worker="w-1"}`]; got <= 0 {
		t.Errorf("labeled bytes-out counter = %v, want > 0", got)
	}
	if got := s.Counters["wq_heartbeats_total"]; got <= 0 {
		t.Errorf("wq_heartbeats_total = %v, want > 0", got)
	}
	// The rebuilt remote registry is attached to the health row.
	h, ok := findWorker(m.ClusterHealth(), "w-1")
	if !ok || h.Remote == nil {
		t.Fatalf("health row missing remote registry: %+v", h)
	}
	if got := h.Remote.Counters["worker_tasks_executed_total"]; got < n {
		t.Errorf("remote worker_tasks_executed_total = %d, want >= %d", got, n)
	}
	if got := h.Remote.Gauges["worker_goroutines"]; got <= 0 {
		t.Errorf("remote worker_goroutines = %v, want > 0", got)
	}
}

// TestStragglerFlag drives the registry's throughput estimates directly
// (no timing dependence): a worker whose EWMA exec time exceeds the
// factor times the cluster median is flagged.
func TestStragglerFlag(t *testing.T) {
	m := NewMaster(MasterConfig{StragglerFactor: 2})
	cl := m.cluster
	noop := func() {}
	for _, id := range []string{"fast-a", "fast-b", "slow"} {
		if err := cl.attach(id, noop, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		cl.taskFinished("fast-a", Result{Elapsed: 10 * time.Millisecond})
		cl.taskFinished("fast-b", Result{Elapsed: 12 * time.Millisecond})
		cl.taskFinished("slow", Result{Elapsed: 500 * time.Millisecond})
	}
	rows := m.ClusterHealth()
	for _, id := range []string{"fast-a", "fast-b"} {
		if h, _ := findWorker(rows, id); h.Straggler {
			t.Errorf("%s flagged as straggler: %+v", id, h)
		}
	}
	h, _ := findWorker(rows, "slow")
	if !h.Straggler {
		t.Errorf("slow worker not flagged: %+v", h)
	}
	if h.EWMAExecMs < 400 {
		t.Errorf("slow EWMA = %.1f, want ~500", h.EWMAExecMs)
	}
}

// TestStragglerNeedsQuorum: a lone worker can never be a straggler —
// there is no cluster median to be slower than.
func TestStragglerNeedsQuorum(t *testing.T) {
	m := NewMaster(MasterConfig{})
	if err := m.cluster.attach("only", func() {}, nil, nil); err != nil {
		t.Fatal(err)
	}
	m.cluster.taskFinished("only", Result{Elapsed: 10 * time.Second})
	if h, _ := findWorker(m.ClusterHealth(), "only"); h.Straggler {
		t.Errorf("lone worker flagged as straggler")
	}
}

// TestUnknownMessageRejectedNotFatal: a foreign worker speaking another
// dialect — a message type a worker never sends, or bytes that are no
// wire frame at all — is dropped, but the master keeps serving other
// workers.
func TestUnknownMessageRejectedNotFatal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{ResultBuffer: 4})
	for _, tc := range []struct {
		name string
		// speak may fail: the handler severs the link as soon as it has
		// seen enough, and a write error past that point is the
		// rejection working.
		speak   func(c *codec)
		wantErr string
	}{
		{"unexpected type", func(c *codec) {
			_ = c.send(message{Type: msgTaskBatch, WorkerID: "foreign"})
		}, "unexpected message"},
		{"not a frame", func(c *codec) {
			_, _ = c.conn.Write([]byte(`{"type":"gossip","worker_id":"foreign"}` + "\n"))
		}, ErrWireFormat.Error()},
	} {
		mconn, wconn := pipePair()
		done := make(chan error, 1)
		go func() { done <- m.HandleWorker(ctx, mconn) }()
		c := newCodec(wconn)
		if err := c.send(message{Type: msgHello, WorkerID: "foreign"}); err != nil {
			t.Fatal(err)
		}
		go tc.speak(c)
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: handler error = %v, want %q", tc.name, err, tc.wantErr)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: handler did not reject the foreign message", tc.name)
		}
		_ = c.close()
	}
	// The master is still functional.
	p := NewPool(m, echoExec)
	defer p.Close()
	p.Resize(ctx, 1)
	if err := m.Submit(Task{ID: "t", JobID: "j", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if r := collect(t, m, 1)[0]; r.Err != "" {
		t.Errorf("master broken after foreign worker: %+v", r)
	}
}

// TestDuplicateWorkerIDRejected: two live connections may not share an
// identity — the second is refused.
func TestDuplicateWorkerIDRejected(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{})
	attach := func() (*codec, chan error) {
		mconn, wconn := pipePair()
		done := make(chan error, 1)
		go func() { done <- m.HandleWorker(ctx, mconn) }()
		c := newCodec(wconn)
		if err := c.send(message{Type: msgHello, WorkerID: "twin"}); err != nil {
			t.Fatal(err)
		}
		return c, done
	}
	c1, done1 := attach()
	defer func() { _ = c1.close() }()
	waitFor(t, func() bool { return m.WorkerCount() == 1 }, "first twin to attach")
	c2, done2 := attach()
	defer func() { _ = c2.close() }()
	select {
	case err := <-done2:
		if err == nil || !strings.Contains(err.Error(), "already attached") {
			t.Errorf("duplicate attach error = %v", err)
		}
	case err := <-done1:
		t.Fatalf("first twin was evicted instead: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate attach not rejected")
	}
	if n := m.WorkerCount(); n != 1 {
		t.Errorf("worker count after duplicate = %d, want 1", n)
	}
}

// TestClusterHandlerServesJSON covers the /cluster endpoint shape.
func TestClusterHandlerServesJSON(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{ResultBuffer: 4})
	p := NewPool(m, echoExec)
	defer p.Close()
	p.Resize(ctx, 2)
	waitFor(t, func() bool { return m.WorkerCount() == 2 }, "workers")
	if err := m.Submit(Task{ID: "t", JobID: "j", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	collect(t, m, 1)

	rows := m.ClusterHealth()
	if len(rows) != 2 {
		t.Fatalf("cluster rows = %d, want 2", len(rows))
	}
	total := int64(0)
	for _, h := range rows {
		if h.State != WorkerAlive {
			t.Errorf("worker %s state = %s, want alive", h.ID, h.State)
		}
		if h.ConnectedAt.IsZero() || h.LastSeen.IsZero() {
			t.Errorf("worker %s missing timestamps: %+v", h.ID, h)
		}
		total += h.TasksCompleted
	}
	if total != 1 {
		t.Errorf("tasks completed across cluster = %d, want 1", total)
	}
	// Status carries the same rows.
	st := m.Status()
	if len(st.WorkersDetail) != 2 {
		t.Errorf("Status.WorkersDetail rows = %d, want 2", len(st.WorkersDetail))
	}
}

// TestDepartedWorkerRemembered: a gracefully released worker stays
// visible as dead with a disconnect reason.
func TestDepartedWorkerRemembered(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMaster(MasterConfig{ResultBuffer: 4})
	p := NewPool(m, echoExec)
	defer p.Close()
	p.Resize(ctx, 1)
	waitFor(t, func() bool { return m.WorkerCount() == 1 }, "worker to attach")
	rows := m.ClusterHealth()
	if len(rows) != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	id := rows[0].ID
	m.Release(id)
	waitFor(t, func() bool { return m.WorkerCount() == 0 }, "worker to depart")
	h, ok := findWorker(m.ClusterHealth(), id)
	if !ok {
		t.Fatal("departed worker forgotten")
	}
	if h.State != WorkerDead || h.Reason == "" {
		t.Errorf("departed health = %+v, want dead with reason", h)
	}
}

// TestReattachedWorkerCountsOnce: a worker that re-attaches under the
// same ID has its task count and exec histogram added to the master's
// registry once. Its registry may survive the redial (5 then 7 is 2 more
// tasks) or be fresh (5 then 2 is a reset: 2 more).
func TestReattachedWorkerCountsOnce(t *testing.T) {
	// ship returns a snapshot of a worker registry that has executed n
	// tasks of 1 ms each.
	ship := func(reg *obs.Registry, n int) *obs.RegistrySnapshot {
		inst := newWorkerInstruments(reg)
		for range n - int(reg.Counter(mWorkerExecuted).Value()) {
			inst.observe(time.Millisecond, false)
		}
		snap := reg.Snapshot()
		return &snap
	}
	same := obs.NewRegistry()
	for _, tc := range []struct {
		name          string
		before, after *obs.RegistrySnapshot
	}{
		{"same registry", ship(same, 5), ship(same, 7)},
		{"fresh registry", ship(obs.NewRegistry(), 5), ship(obs.NewRegistry(), 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cl := newCluster(reg, 0)
			if err := cl.attach("w", nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			cl.recordShip("w", tc.before)
			cl.detach("w", "disconnected")
			if err := cl.attach("w", nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			cl.recordShip("w", tc.after)
			if got := reg.Counter(workerLabel("wq_worker_tasks_total", "w")).Value(); got != 7 {
				t.Errorf("wq_worker_tasks_total = %d, want 7", got)
			}
			if got := reg.Snapshot().Histograms[workerLabel("wq_worker_exec_ms", "w")].Count; got != 7 {
				t.Errorf("wq_worker_exec_ms count = %d, want 7", got)
			}
		})
	}
}
