package dtm

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/workqueue"
)

// TestDecodeTaskKeepsJobPriority: the master forgets a job, priority
// included, the instant its scatter tasks have all completed — which is
// now the instant before its decode task is submitted. A shed job and a
// normal job both reach their decode phase with no worker attached; the
// one worker that then joins makes exactly one weighted pick between the
// two decode tasks, and takes the normal job's for every scheduler seed.
// With the shed job's decode task back at the default 1.0 that pick is a
// coin flip per seed.
func TestDecodeTaskKeepsJobPriority(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		var (
			held    = make(chan struct{}, 2)
			release = make(chan struct{})
			order   = make(chan int, 2) // series length of each decode task, in execution order
		)
		cfg := DefaultConfig(origin())
		cfg.Seed = seed
		cfg.Workers, cfg.TasksPerJob = 2, 1
		cfg.RespawnWorkers = false
		cfg.Admission = &workqueue.AdmissionConfig{TaskRatePerWorker: 0.001, Shed: true}
		cfg.WrapExec = func(exec workqueue.Executor) workqueue.Executor {
			return func(ctx context.Context, p []byte) ([]byte, error) {
				if p[0] == kindDecode {
					end, _, _, err := parseDecodeHeader(p)
					if err != nil {
						return nil, err
					}
					n, _ := foldOutput(new([]int64), p[end:], maxSpan, math.MaxInt64)
					order <- n
				} else {
					held <- struct{}{}
					<-release
				}
				return exec(ctx, p)
			}
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Start(context.Background())
		for start := time.Now(); len(m.ClusterHealth()) < 2; time.Sleep(time.Millisecond) {
			if time.Since(start) > 10*time.Second {
				t.Fatal("workers never attached")
			}
		}
		// The shed job's series is 10 intervals long, the normal job's 20.
		if err := m.SubmitJob("shed", flipReports("shed", 10, 5, 4, 0.1, 1), 50*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := m.SubmitJob("normal", flipReports("normal", 20, 10, 4, 0.1, 2), 0); err != nil {
			t.Fatal(err)
		}
		// Both scatter tasks are executing, one on each worker. Release the
		// workers from the pool before letting the tasks return: each gets
		// a shutdown instead of a decode task.
		<-held
		<-held
		m.pool.Resize(context.Background(), 0)
		close(release)
		for start := time.Now(); m.Master().QueueLen() < 2; time.Sleep(time.Millisecond) {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("seed %d: %d decode tasks queued, want 2", seed, m.Master().QueueLen())
			}
		}
		m.pool.Resize(context.Background(), 1)
		results := drain(t, m, 2)
		m.Close()
		for _, r := range results {
			if r.Err != nil || r.Shed != (r.Claim == "shed") {
				t.Fatalf("seed %d: job %s: err %v, shed %t", seed, r.Claim, r.Err, r.Shed)
			}
		}
		if first, second := <-order, <-order; first != 20 || second != 10 {
			t.Fatalf("seed %d: decode tasks ran in the order %d, %d intervals; want the normal job's 20 before the shed job's 10", seed, first, second)
		}
	}
}

// TestDeadlineCountsTheDecode: a job's latency runs until its truth is in
// hand. A decode task that alone overruns the deadline makes the job a
// miss — in JobResult, in the counters and in the latency histogram.
func TestDeadlineCountsTheDecode(t *testing.T) {
	const deadline = 20 * time.Millisecond
	cfg := DefaultConfig(origin())
	cfg.Workers = 2
	cfg.Metrics = obs.NewRegistry()
	cfg.WrapExec = func(exec workqueue.Executor) workqueue.Executor {
		return func(ctx context.Context, p []byte) ([]byte, error) {
			if p[0] == kindDecode {
				time.Sleep(deadline + 10*time.Millisecond)
			}
			return exec(ctx, p)
		}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("c", flipReports("c", 20, 10, 4, 0.1, 1), deadline); err != nil {
		t.Fatal(err)
	}
	res := drain(t, m, 1)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.MetDeadline || res.Elapsed <= deadline {
		t.Errorf("MetDeadline = %t, Elapsed = %s: the decode alone took longer than the %s deadline", res.MetDeadline, res.Elapsed, deadline)
	}
	if miss, hit := cfg.Metrics.Counter("dtm_deadline_miss_total").Value(), cfg.Metrics.Counter("dtm_deadline_hit_total").Value(); miss != 1 || hit != 0 {
		t.Errorf("dtm_deadline_miss_total = %d, dtm_deadline_hit_total = %d; want 1, 0", miss, hit)
	}
	snap := cfg.Metrics.Snapshot()
	if h := snap.Histograms["dtm_decode_ms"]; h.Count != 1 || h.Sum < float64(deadline/time.Millisecond) {
		t.Errorf("dtm_decode_ms = %+v, want the one decode task's worker-side time", h)
	}
	if h := snap.Histograms["dtm_job_latency_ms"]; h.Count != 1 || h.Sum < float64(deadline/time.Millisecond) {
		t.Errorf("dtm_job_latency_ms = %+v, want the decode included", h)
	}
}

// TestLostDecodeTaskFailsJob: there is no timeline without the decode
// task, so a job that loses it reports the task's error, whatever became
// of its scatter tasks.
func TestLostDecodeTaskFailsJob(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.Workers = 2
	cfg.Metrics = obs.NewRegistry()
	cfg.WrapExec = func(exec workqueue.Executor) workqueue.Executor {
		return func(ctx context.Context, p []byte) ([]byte, error) {
			if p[0] == kindDecode {
				return nil, fmt.Errorf("decode task lost")
			}
			return exec(ctx, p)
		}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("c", flipReports("c", 20, 10, 4, 0.1, 1), 0); err != nil {
		t.Fatal(err)
	}
	res := drain(t, m, 1)[0]
	if res.Err == nil || !strings.Contains(res.Err.Error(), "decode task lost") || res.Degraded || res.FailedTasks != 0 || res.Estimates != nil {
		t.Errorf("result %+v, want the decode task's error and nothing else", res)
	}
	if failed := cfg.Metrics.Counter("dtm_jobs_failed_total").Value(); failed != 1 {
		t.Errorf("dtm_jobs_failed_total = %d, want 1", failed)
	}
	if len(m.Master().AllStats()) != 0 || len(m.Progress()) != 0 {
		t.Error("the failed job left state behind")
	}
}

// TestFinishedJobsLeaveNoMasterState: a long-running master holds state
// for the jobs in flight, not for every job it ever finished.
func TestFinishedJobsLeaveNoMasterState(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.Workers = 2
	cfg.EnableControl, cfg.SampleEvery = true, time.Millisecond // the tuner sets priorities while jobs finish
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	const jobs = 200
	go func() {
		for i := 0; i < jobs; i++ {
			claim := socialsensing.ClaimID(fmt.Sprintf("c%d", i))
			if err := m.SubmitJob(claim, flipReports(claim, 10, 5, 2, 0.1, int64(i)), time.Second); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, r := range drain(t, m, jobs) {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.Claim, r.Err)
		}
	}
	if stats := m.Master().AllStats(); len(stats) != 0 {
		t.Errorf("%d JobStats rows after every job finished, first %+v", len(stats), stats[0])
	}
	if st := m.Master().Status(); len(st.Jobs) != 0 || st.QueuedTasks != 0 {
		t.Errorf("/status after every job finished: %d jobs, %d queued tasks", len(st.Jobs), st.QueuedTasks)
	}
	if p := m.Progress(); len(p) != 0 {
		t.Errorf("Progress after every job finished: %+v", p)
	}
}
