package dtm

import (
	"context"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/workqueue"
)

// TestCloseFlushesFinalControlTick: a run shorter than SampleEvery never
// sees a periodic control tick, so Close must record a final one — the
// artifact of a short experiment would otherwise carry no worker rows.
func TestCloseFlushesFinalControlTick(t *testing.T) {
	rec := obs.NewControlRecorder(0)
	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	cfg.Workers = 2
	cfg.ControlLog = rec
	cfg.SampleEvery = time.Hour // no periodic tick can fire in this test
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	if err := m.SubmitJob("c-flush", flipReports("c-flush", 20, 10, 4, 0.1, 7), 0); err != nil {
		t.Fatal(err)
	}
	res := drain(t, m, 1)[0]
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	m.Close()
	rows := rec.WorkerSamples()
	if len(rows) == 0 {
		t.Fatal("Close recorded no final control tick: worker samples empty")
	}
	for _, r := range rows {
		if r.Worker == "" || r.State == "" {
			t.Errorf("malformed worker row: %+v", r)
		}
	}
}

// TestControlLogSampledWithoutTuner: a ControlLog on a manager whose PID
// loop is off (sstd-master's -control-out) still gets per-worker rows
// every SampleEvery, not only the final flush.
func TestControlLogSampledWithoutTuner(t *testing.T) {
	rec := obs.NewControlRecorder(0)
	cfg := DefaultConfig(origin())
	cfg.Workers = 2
	cfg.ControlLog = rec
	cfg.SampleEvery = 5 * time.Millisecond
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	for start := time.Now(); len(rec.WorkerSamples()) < 2*cfg.Workers; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("%d worker rows after 10s, want periodic ticks", len(rec.WorkerSamples()))
		}
	}
}

// TestWorkerRowsSkipDepartedWorkers: a control tick records one row per
// worker still attached. A worker that has left the pool stays in the
// health registry as dead, and gets no row.
func TestWorkerRowsSkipDepartedWorkers(t *testing.T) {
	rec := obs.NewControlRecorder(0)
	cfg := DefaultConfig(origin())
	cfg.Workers = 2
	cfg.ControlLog = rec
	cfg.SampleEvery = time.Hour // no periodic tick can fire in this test
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	for start := time.Now(); m.master.WorkerCount() < cfg.Workers; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("%d of %d workers attached after 10s", m.master.WorkerCount(), cfg.Workers)
		}
	}
	m.pool.Resize(context.Background(), 1)
	for start := time.Now(); len(m.ClusterHealth()) < cfg.Workers || m.master.WorkerCount() != 1; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("health rows %+v after 10s, want one worker departed", m.ClusterHealth())
		}
	}
	rec.BeginTick()
	m.recordWorkerRows(time.Now())
	if rows := rec.WorkerSamples(); len(rows) != 1 || rows[0].State != string(workqueue.WorkerAlive) {
		t.Fatalf("worker rows %+v, want one for the attached worker", rows)
	}
}
