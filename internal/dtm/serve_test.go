package dtm

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/workqueue"
)

// serveTCP attaches a loopback listener to m and returns its address.
func serveTCP(t *testing.T, m *Manager) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m.Serve(l)
	return l.Addr().String()
}

// dialWorkers connects n workers running ExecuteTask, as cmd/sstd-worker
// does, and returns a function that waits for all of them to exit (the
// manager's Close sends them home).
func dialWorkers(addr string, n int) (wait func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &workqueue.Worker{ID: fmt.Sprintf("tcp-worker-%d", i), Exec: ExecuteTask}
			_ = w.Dial(context.Background(), addr)
		}(i)
	}
	return wg.Wait
}

// TestLateWorkerCompletesQueuedJob: a manager with no in-process pool and
// no listener yet still accepts a job; it completes once a worker dials in.
func TestLateWorkerCompletesQueuedJob(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	cfg.Workers = 0
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	reports := flipReports("c1", 30, 15, 4, 0.1, 3)
	if err := m.SubmitJob("c1", reports, 0); err != nil {
		t.Fatal(err)
	}
	if got := m.Workers(); got != 0 {
		t.Fatalf("in-process pool size = %d, want 0", got)
	}
	wait := dialWorkers(serveTCP(t, m), 1)
	res := drain(t, m, 1)[0]
	m.Close()
	wait()
	if res.Err != nil || res.Degraded {
		t.Fatalf("err=%v degraded=%t", res.Err, res.Degraded)
	}
	eng := newLocalEngine(t, cfg)
	if err := eng.IngestAll(reports); err != nil {
		t.Fatal(err)
	}
	want, err := eng.DecodeClaim("c1")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(res.Estimates) {
		t.Fatalf("%d estimates over TCP, %d from the single-node engine", len(res.Estimates), len(want))
	}
	for i := range want {
		if res.Estimates[i].Value != want[i].Value {
			t.Fatalf("interval %d: %v over TCP, %v from the single-node engine", i, res.Estimates[i].Value, want[i].Value)
		}
	}
}

// TestTCPWorkerDeathRequeuesSameBits kills one of two TCP workers'
// connections while it holds a task — a scatter task in one run, the
// decode task in the other: the master requeues it onto the survivor and
// the job's estimates equal the pool-only run bit for bit.
func TestTCPWorkerDeathRequeuesSameBits(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	cfg.TasksPerJob = 8
	cfg.Workers = 2
	cfg.RequeueBackoff = workqueue.BackoffConfig{Base: time.Millisecond, Max: 5 * time.Millisecond}
	reports := flipReports("c1", 60, 25, 6, 0.1, 9)
	run := func(t *testing.T, cfg Config, attach func(m *Manager) (wait func())) JobResult {
		t.Helper()
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Start(context.Background())
		wait := attach(m)
		if err := m.SubmitJob("c1", reports, 0); err != nil {
			t.Fatal(err)
		}
		res := drain(t, m, 1)[0]
		m.Close()
		wait()
		if res.Err != nil || res.Degraded {
			t.Fatalf("err=%v degraded=%t failed=%d", res.Err, res.Degraded, res.FailedTasks)
		}
		return res
	}
	pool := run(t, cfg, func(*Manager) func() { return func() {} })

	for phase, kind := range map[string]byte{"scatter": payloadVersion, "decode": kindDecode} {
		t.Run(phase, func(t *testing.T) {
			cfg := cfg
			cfg.Workers = 0
			cfg.Metrics = obs.NewRegistry()
			tcp := run(t, cfg, func(m *Manager) func() {
				addr := serveTCP(t, m)
				// The victim is alone when the job arrives, so it holds a task of
				// the kind when the survivor joins and its own connection is cut
				// underneath it.
				var (
					conn         net.Conn
					holding      = make(chan struct{})
					cut          = make(chan struct{})
					once         sync.Once
					wg           sync.WaitGroup
					waitSurvivor func()
				)
				victim := &workqueue.Worker{
					ID:       "tcp-victim",
					WrapConn: func(c net.Conn) net.Conn { conn = c; return c },
					Exec: func(ctx context.Context, p []byte) ([]byte, error) {
						if p[0] == kind {
							once.Do(func() { close(holding) })
							<-cut
						}
						return ExecuteTask(ctx, p)
					},
				}
				wg.Add(2)
				go func() { defer wg.Done(); _ = victim.Dial(context.Background(), addr) }()
				go func() {
					defer wg.Done()
					<-holding
					waitSurvivor = dialWorkers(addr, 1)
					for m.Master().WorkerCount() < 2 {
						time.Sleep(time.Millisecond)
					}
					_ = conn.Close()
					close(cut)
				}()
				for start := time.Now(); m.Master().WorkerCount() < 1; time.Sleep(time.Millisecond) {
					if time.Since(start) > 10*time.Second {
						t.Fatal("victim never attached")
					}
				}
				return func() { wg.Wait(); waitSurvivor() }
			})
			if cfg.Metrics.Counter("wq_task_retries_total").Value() == 0 {
				t.Fatal("no task was requeued: the death tested nothing")
			}
			if !reflect.DeepEqual(pool.Estimates, tcp.Estimates) {
				t.Error("estimates after a TCP worker death differ from the pool-only run")
			}
		})
	}
}

// TestCloseStopsServing: Close with a live listener returns promptly,
// closes the listener and leaves no goroutine of the accept loop or its
// handlers behind.
func TestCloseStopsServing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := DefaultConfig(origin())
	cfg.Workers = 0
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	addr := serveTCP(t, m)
	wait := dialWorkers(addr, 2)
	for start := time.Now(); m.Master().WorkerCount() < 2; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("workers never attached")
		}
	}
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return within 5s with a live listener")
	}
	wait()
	if c, err := net.Dial("tcp", addr); err == nil {
		_ = c.Close()
		t.Error("listener still accepts after Close")
	}
	for start := time.Now(); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d alive, %d before\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}
