package workqueue

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
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
// counters by delta, the exec histogram by per-bucket delta, gauges as
// shipped.
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
	// catch up with the completed tasks. wq_heartbeats_total is not part
	// of a ship: the heartbeat path bumps it after the fold.
	waitFor(t, func() bool {
		return reg.Counter(`wq_worker_tasks_total{worker="w-1"}`).Value() >= n &&
			reg.Counter("wq_heartbeats_total").Value() > 0
	}, "per-worker task counter to reach n and a heartbeat to count")

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
	if got := s.Counters[`wq_worker_tasks_total{worker="w-1"}`]; got < n {
		t.Errorf("labeled task counter = %d, want >= %d", got, n)
	}
	if got := s.Gauges[`wq_worker_heap_bytes{worker="w-1"}`]; got <= 0 {
		t.Errorf("labeled heap gauge = %v, want > 0", got)
	}
}

// TestTaskDeadlineSeversSilentWorker: a worker that takes a task and
// never answers is severed at TaskTimeout, its task requeued and the
// timeout counted in wq_task_timeouts_total (the chaos soak bounds it).
func TestTaskDeadlineSeversSilentWorker(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMaster(MasterConfig{Metrics: reg, TaskTimeout: 50 * time.Millisecond, RequeueBackoff: BackoffConfig{Base: -1}})
	defer m.Shutdown()
	mconn, wconn := pipePair()
	lost := make(chan error, 1)
	go func() { lost <- m.HandleWorker(context.Background(), mconn) }()
	c := newCodec(wconn)
	defer c.close()
	if err := c.send(message{Type: msgHello, WorkerID: "mute"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(Task{ID: "t", JobID: "j"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.recv(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-lost:
		if err == nil || !strings.Contains(err.Error(), "deadline") {
			t.Fatalf("handler returned %v, want the task deadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a silent worker kept its task past TaskTimeout")
	}
	if got := reg.Snapshot().Counters["wq_task_timeouts_total"]; got != 1 {
		t.Errorf("wq_task_timeouts_total = %d, want 1", got)
	}
	if q := m.QueueLen(); q != 1 {
		t.Errorf("queue length %d after the deadline, want the task requeued", q)
	}
}

// TestReaderExitsWithHandler: result frames a worker sends past its
// window fill the reader's hand-off channel while the handler idles. Once
// the handler returns nobody reads them, and the reader must exit rather
// than block forever forwarding one.
func TestReaderExitsWithHandler(t *testing.T) {
	m := NewMaster(MasterConfig{})
	defer m.Shutdown()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	mconn, wconn := pipePair()
	handled := make(chan struct{})
	go func() { _ = m.HandleWorker(ctx, mconn); close(handled) }()
	c := newCodec(wconn)
	if err := c.send(message{Type: msgHello, WorkerID: "chatty"}); err != nil {
		t.Fatal(err)
	}
	// Lock-step: the hand-off holds two frames; the reader takes a third
	// off the wire and blocks forwarding it.
	for i := 0; i < 3; i++ {
		if err := c.send(message{Type: msgResultBatch, Results: []Result{{TaskID: "stray"}}}); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		for {
			if _, err := c.recv(); err != nil {
				return
			}
		}
	}()
	cancel()
	<-handled
	_ = c.close()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before }, "the connection's goroutines to exit")
}

// TestTasksPerSecEWMA: tasksPerSec, the completion rate DESIGN sets
// against the service rate, is smoothed from the intervals between
// acks — none until a second ack.
func TestTasksPerSecEWMA(t *testing.T) {
	cl := newCluster(nil, 0, nil)
	if err := cl.attach("w", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	cl.taskFinished("w", Result{}, 0, nil)
	if r := cl.health()[0].TasksPerSec; r != 0 {
		t.Errorf("after one ack: %v tasks/s, want 0", r)
	}
	time.Sleep(20 * time.Millisecond)
	cl.taskFinished("w", Result{}, 0, nil)
	if r := cl.health()[0].TasksPerSec; r <= 0 || r > 50 {
		t.Errorf("acks 20 ms apart: %v tasks/s, want in (0, 50]", r)
	}
}

// TestSuspectWorkerRecovers: a worker that missed one liveness window
// is suspect, and the next message it sends makes it alive again; only
// DeadAfter of silence evicts it.
func TestSuspectWorkerRecovers(t *testing.T) {
	cl := newCluster(nil, 0, nil)
	if err := cl.attach("w", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	const suspectAfter = 50 * time.Millisecond
	time.Sleep(suspectAfter + 10*time.Millisecond)
	if st := cl.checkLiveness("w", suspectAfter, time.Hour); st != WorkerSuspect {
		t.Fatalf("silent past SuspectAfter: %s, want %s", st, WorkerSuspect)
	}
	cl.heartbeat("w")
	if st := cl.checkLiveness("w", suspectAfter, time.Hour); st != WorkerAlive {
		t.Fatalf("heard from again: %s, want %s", st, WorkerAlive)
	}
}

// TestWorkerGaugesTrackState: wq_worker_up{worker} reads 1 alive, 0.5
// suspect and 0 once dead or departed; wq_workers counts the attached
// workers and wq_workers_suspect the suspect ones.
func TestWorkerGaugesTrackState(t *testing.T) {
	reg := obs.NewRegistry()
	cl := newCluster(reg, 0, nil)
	for _, id := range []string{"a", "b"} {
		if err := cl.attach(id, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, upA float64, workers, suspect int) {
		t.Helper()
		if got := reg.Gauge(workerLabel("wq_worker_up", "a")).Value(); got != upA {
			t.Errorf("%s: wq_worker_up{a} = %v, want %v", when, got, upA)
		}
		if got := reg.Gauge("wq_workers").Value(); got != float64(workers) {
			t.Errorf("%s: wq_workers = %v, want %d", when, got, workers)
		}
		if got := reg.Gauge("wq_workers_suspect").Value(); got != float64(suspect) {
			t.Errorf("%s: wq_workers_suspect = %v, want %d", when, got, suspect)
		}
	}
	check("attached", 1, 2, 0)
	const suspectAfter = 20 * time.Millisecond
	time.Sleep(suspectAfter + 5*time.Millisecond)
	cl.heartbeat("b")
	cl.checkLiveness("a", suspectAfter, time.Hour)
	check("a silent", 0.5, 2, 1)
	cl.heartbeat("a")
	check("a heard from", 1, 2, 0)
	time.Sleep(suspectAfter + 5*time.Millisecond)
	cl.checkLiveness("a", suspectAfter, suspectAfter)
	check("a evicted", 0, 2, 0)
	cl.detach("a", "disconnected")
	check("a departed", 0, 1, 0)
}

// TestDepartedWorkersBounded: the registry remembers the last
// deadRetention departed workers, so an elastic pool's churn cannot
// grow it without bound.
func TestDepartedWorkersBounded(t *testing.T) {
	cl := newCluster(nil, 0, nil)
	for i := 0; i < deadRetention+8; i++ {
		id := fmt.Sprintf("w%02d", i)
		if err := cl.attach(id, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		cl.detach(id, "released")
	}
	rows := cl.health()
	if len(rows) != deadRetention || rows[0].ID != fmt.Sprintf("w%02d", deadRetention+7) {
		t.Fatalf("%d departed rows, newest %q; want the newest %d", len(rows), rows[0].ID, deadRetention)
	}
}

// TestTelemetryShipsEveryFifthHeartbeat: a worker's first heartbeat and
// every fifth after it carry its registry snapshot (README's shipped
// metrics); the others are bare pings.
func TestTelemetryShipsEveryFifthHeartbeat(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mconn, wconn := pipePair()
	go func() { _ = (&Worker{ID: "w", Exec: echoExec, HeartbeatEvery: time.Millisecond}).Run(ctx, wconn) }()
	c := newCodec(mconn)
	defer c.close()
	var ships []bool
	for len(ships) < 11 {
		msg, err := c.recv()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Type == msgHeartbeat {
			ships = append(ships, msg.Telemetry != nil)
		}
	}
	for i, shipped := range ships {
		if shipped != (i%5 == 0) {
			t.Fatalf("telemetry on heartbeats %v, want on the first and every fifth after it", ships)
		}
	}
}

// TestLivenessTick: the monitor checks at half the tighter threshold,
// and never faster than every 5 ms — a nanosecond threshold would
// otherwise hand the ticker a zero interval.
func TestLivenessTick(t *testing.T) {
	for _, c := range []struct{ suspect, dead, want time.Duration }{
		{40 * time.Millisecond, 150 * time.Millisecond, 20 * time.Millisecond},
		{0, 150 * time.Millisecond, 75 * time.Millisecond},
		{time.Second, 100 * time.Millisecond, 50 * time.Millisecond},
		{time.Nanosecond, 0, 5 * time.Millisecond},
	} {
		if got := livenessTick(c.suspect, c.dead); got != c.want {
			t.Errorf("livenessTick(%v, %v) = %v, want %v", c.suspect, c.dead, got, c.want)
		}
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
		cl.taskFinished("fast-a", Result{Elapsed: 10 * time.Millisecond}, 0, nil)
		cl.taskFinished("fast-b", Result{Elapsed: 12 * time.Millisecond}, 0, nil)
		cl.taskFinished("slow", Result{Elapsed: 500 * time.Millisecond}, 0, nil)
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

// TestStragglerTripsOnce: a newly flagged straggler trips the master's
// flight recorder (DESIGN's flight-recorder section); health snapshots
// that find it still flagged do not trip it again.
func TestStragglerTripsOnce(t *testing.T) {
	mrec := mustRecorder(t)
	m := NewMaster(MasterConfig{FlightRec: mrec})
	defer m.Shutdown()
	for id, ms := range map[string]time.Duration{"fast-a": 10, "fast-b": 12, "slow": 500} {
		if err := m.cluster.attach(id, func() {}, nil, nil); err != nil {
			t.Fatal(err)
		}
		m.cluster.taskFinished(id, Result{Elapsed: ms * time.Millisecond}, 0, nil)
	}
	for i := 0; i < 3; i++ {
		m.ClusterHealth()
		mrec.Wait()
		time.Sleep(2 * time.Millisecond) // past the recorder's cooldown
	}
	if d := mrec.Dumps(); len(d) != 1 || d[0].Trigger != flightrec.TrigStraggler {
		t.Fatalf("dumps after three snapshots of one straggler: %+v, want one %s dump", d, flightrec.TrigStraggler)
	}
}

// TestStragglerNeedsQuorum: a lone worker can never be a straggler —
// there is no cluster median to be slower than.
func TestStragglerNeedsQuorum(t *testing.T) {
	m := NewMaster(MasterConfig{})
	if err := m.cluster.attach("only", func() {}, nil, nil); err != nil {
		t.Fatal(err)
	}
	m.cluster.taskFinished("only", Result{Elapsed: 10 * time.Second}, 0, nil)
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
		{"empty result batch", func(c *codec) {
			_ = c.send(message{Type: msgResultBatch, WorkerID: "foreign"})
		}, "without results"},
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
			cl := newCluster(reg, 0, nil)
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
