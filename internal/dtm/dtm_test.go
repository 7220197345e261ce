package dtm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/workqueue"
)

func origin() time.Time { return time.Date(2016, 9, 30, 12, 0, 0, 0, time.UTC) }

// minuteStarts is the starts of n one-minute intervals from origin.
func minuteStarts(n int) []time.Time { return core.NewGrid(origin(), time.Minute).Starts(nil, n) }

// flipReports builds reports for one claim whose truth flips at
// flipMinute over the given number of minutes.
func flipReports(claim socialsensing.ClaimID, minutes, flipMinute, perMinute int, noise float64, seed int64) []socialsensing.Report {
	rng := rand.New(rand.NewSource(seed))
	var out []socialsensing.Report
	for m := 0; m < minutes; m++ {
		truthTrue := m < flipMinute
		for k := 0; k < perMinute; k++ {
			correct := rng.Float64() >= noise
			att := socialsensing.Disagree
			if truthTrue == correct {
				att = socialsensing.Agree
			}
			out = append(out, socialsensing.Report{
				Source:       socialsensing.SourceID(fmt.Sprintf("s%d", k)),
				Claim:        claim,
				Timestamp:    origin().Add(time.Duration(m) * time.Minute),
				Attitude:     att,
				Uncertainty:  0.1,
				Independence: 0.9,
			})
		}
	}
	return out
}

// newLocalEngine builds the in-process SSTD engine with the same pipeline
// parameters as the manager config, for equivalence checks.
func newLocalEngine(t *testing.T, cfg Config) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(core.Config{ACS: cfg.ACS, Decoder: cfg.Decoder, Origin: cfg.Origin})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func drain(t *testing.T, m *Manager, n int) []JobResult {
	t.Helper()
	out := make([]JobResult, 0, n)
	timeout := time.After(30 * time.Second)
	for len(out) < n {
		select {
		case r, ok := <-m.Results():
			if !ok {
				t.Fatalf("results closed at %d/%d", len(out), n)
			}
			out = append(out, r)
		case <-timeout:
			t.Fatalf("timed out at %d/%d results", len(out), n)
		}
	}
	return out
}

// checkJobCounters holds the job counters README names to one job's
// outcome: submitted, completed (degraded ones included), failed and
// degraded.
func checkJobCounters(t *testing.T, reg *obs.Registry, submitted, completed, failed, degraded int64) {
	t.Helper()
	for name, want := range map[string]int64{
		"dtm_jobs_submitted_total": submitted,
		"dtm_jobs_completed_total": completed,
		"dtm_jobs_failed_total":    failed,
		"dtm_jobs_degraded_total":  degraded,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// rootAttrs is the attributes of the finished root span of claim's job.
func rootAttrs(t *testing.T, tr *obs.Tracer, claim string) map[string]string {
	t.Helper()
	for _, s := range tr.Spans() {
		if s.Name == "job "+claim {
			return s.Attrs
		}
	}
	t.Fatalf("no root span for job %s", claim)
	return nil
}

// TestTaskStagesJoinJobTrace: every task carries its job's trace, so the
// stages a worker times for a scatter task, as for the decode task, land
// in the job's trace.
func TestTaskStagesJoinJobTrace(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.Workers, cfg.Tracer = 2, obs.NewTracer(1024)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("c", flipReports("c", 20, 10, 4, 0.1, 1), 0); err != nil {
		t.Fatal(err)
	}
	drain(t, m, 1)
	spans, trace := cfg.Tracer.Spans(), ""
	for _, s := range spans {
		if s.Name == "job c" {
			trace = s.Trace
		}
	}
	stages := map[string]int{}
	for _, s := range spans {
		if s.Proc != "" && s.Trace != "" && s.Trace == trace {
			stages[s.Name]++
		}
	}
	want := cfg.TasksPerJob + 1
	if stages[workqueue.StageDecode] != want || stages[workqueue.StageEncode] != want {
		t.Errorf("worker stage spans in the job's trace %v, want %d %q and %q spans", stages, want, workqueue.StageDecode, workqueue.StageEncode)
	}
}

// perReportDelay makes the pool's executor take d longer per report of a
// scatter task, as a computation-heavy load would, keeping jobs in flight.
func perReportDelay(d time.Duration) func(workqueue.Executor) workqueue.Executor {
	return func(exec workqueue.Executor) workqueue.Executor {
		return func(ctx context.Context, p []byte) ([]byte, error) {
			if t, err := parseTask(p); err == nil {
				select {
				case <-time.After(time.Duration(t.n) * d):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return exec(ctx, p)
		}
	}
}

func TestManagerEndToEnd(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	cfg.Workers = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()

	const minutes, flip = 60, 30
	if err := m.SubmitJob("c1", flipReports("c1", minutes, flip, 8, 0.15, 42), 0); err != nil {
		t.Fatal(err)
	}
	res := drain(t, m, 1)[0]
	if res.Err != nil {
		t.Fatalf("job error: %v", res.Err)
	}
	if res.Claim != "c1" {
		t.Errorf("claim = %s", res.Claim)
	}
	if len(res.Estimates) != minutes {
		t.Fatalf("estimates = %d, want %d", len(res.Estimates), minutes)
	}
	correct := 0
	for i, es := range res.Estimates {
		want := socialsensing.False
		if i < flip {
			want = socialsensing.True
		}
		if es.Value == want {
			correct++
		}
	}
	if acc := float64(correct) / float64(minutes); acc < 0.85 {
		t.Errorf("distributed decode accuracy = %.2f, want >= 0.85", acc)
	}
	if !res.MetDeadline {
		t.Error("job with no deadline reported a miss")
	}
}

func TestManagerMatchesSingleNodeEngine(t *testing.T) {
	// The distributed path (split -> partial sums -> merge -> decode)
	// must produce exactly the same estimates as the in-process engine.
	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	cfg.TasksPerJob = 5
	reports := flipReports("c1", 40, 20, 6, 0.1, 7)

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("c1", reports, 0); err != nil {
		t.Fatal(err)
	}
	distributed := drain(t, m, 1)[0]
	if distributed.Err != nil {
		t.Fatal(distributed.Err)
	}

	ecfg := struct {
		got []socialsensing.TruthValue
	}{}
	eng := newLocalEngine(t, cfg)
	for _, r := range reports {
		if err := eng.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	est, err := eng.DecodeClaim("c1")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range est {
		ecfg.got = append(ecfg.got, e.Value)
	}
	var dgot []socialsensing.TruthValue
	for _, e := range distributed.Estimates {
		dgot = append(dgot, e.Value)
	}
	if !reflect.DeepEqual(ecfg.got, dgot) {
		t.Errorf("distributed decode differs from local engine:\nlocal = %v\ndist  = %v", ecfg.got, dgot)
	}
}

func TestManagerMultipleJobs(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.Workers = 6
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	const jobs = 8
	for i := 0; i < jobs; i++ {
		claim := socialsensing.ClaimID(fmt.Sprintf("claim-%d", i))
		if err := m.SubmitJob(claim, flipReports(claim, 30, 10+i, 5, 0.1, int64(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	results := drain(t, m, jobs)
	seen := make(map[socialsensing.ClaimID]bool)
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("job %s error: %v", r.Claim, r.Err)
		}
		seen[r.Claim] = true
	}
	if len(seen) != jobs {
		t.Errorf("distinct completed jobs = %d, want %d", len(seen), jobs)
	}
}

func TestManagerDeadlines(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.Workers = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	reports := flipReports("c", 20, 10, 4, 0.1, 1)
	// Generous deadline: met. (1 ns deadline: missed.)
	if err := m.SubmitJob("c", reports, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := m.SubmitJob("c2", reports, time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	results := drain(t, m, 2)
	for _, r := range results {
		switch r.Claim {
		case "c":
			if !r.MetDeadline {
				t.Error("1h deadline missed")
			}
		case "c2":
			if r.MetDeadline {
				t.Error("1ns deadline met (impossible)")
			}
		}
	}
}

func TestManagerDuplicateJobRejected(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.WrapExec = perReportDelay(time.Millisecond) // keep the first job in flight
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("dup", flipReports("dup", 5, 2, 2, 0, 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.SubmitJob("dup", nil, 0); err == nil {
		t.Error("duplicate job accepted")
	}
	drain(t, m, 1)
}

func TestManagerEmptyJob(t *testing.T) {
	m, err := New(DefaultConfig(origin()))
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("empty", nil, 0); err != nil {
		t.Fatal(err)
	}
	res := drain(t, m, 1)[0]
	if res.Err != nil {
		t.Errorf("empty job error: %v", res.Err)
	}
	if len(res.Estimates) != 0 {
		t.Errorf("empty job estimates = %v", res.Estimates)
	}
}

func TestManagerControlLoopAdjustsPool(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.Workers = 1
	cfg.EnableControl = true
	cfg.SampleEvery = 20 * time.Millisecond
	cfg.WrapExec = perReportDelay(2 * time.Millisecond) // make work visible to the monitor
	cfg.Tuner.MaxWorkers = 16
	cfg.ControlLog = obs.NewControlRecorder(0)
	// Calibrate WCET so the model predicts lateness under the tight
	// deadline below.
	cfg.WCET.Theta2 = 10 * time.Millisecond
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()

	for i := 0; i < 4; i++ {
		claim := socialsensing.ClaimID(fmt.Sprintf("c%d", i))
		if err := m.SubmitJob(claim, flipReports(claim, 20, 10, 10, 0.1, int64(i)), 300*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	// The controller grows the pool while jobs are predicted late and
	// may legitimately shrink it back once the backlog clears, so track
	// the peak while draining.
	maxWorkers := m.Workers()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
			}
			if w := m.Workers(); w > maxWorkers {
				maxWorkers = w
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	results := drain(t, m, 4)
	done <- struct{}{}
	<-done
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("job %s: %v", r.Claim, r.Err)
		}
	}
	if maxWorkers <= 1 {
		t.Errorf("control loop never grew the pool: peak %d workers", maxWorkers)
	}
	// Each tick records every job's PID state and knobs, and each worker's
	// observed exec time beside the WCET model's prediction.
	samples := cfg.ControlLog.Samples()
	if len(samples) == 0 || samples[0].Job == "" || samples[0].LCK <= 0 || samples[0].GCK < 1 || samples[0].DeadlineMs != 300 {
		t.Errorf("control samples %+v, want rows of the jobs' knobs", samples)
	}
	predicted := false
	for _, w := range cfg.ControlLog.WorkerSamples() {
		predicted = predicted || w.PredictedExecMs > 0
	}
	if !predicted {
		t.Error("no worker row carries the model's predicted exec time")
	}
}

// TestControlStepActuatesLCK: a control tick hands the tuner's priorities
// to the master (the Local Control Knob). With the one worker busy, a job
// predicted to miss its deadline and a job with an hour to spare queue up;
// after one tick the late job's task is picked first for every scheduler
// seed, where equal weights would make the pick a coin flip per seed.
func TestControlStepActuatesLCK(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		held, release := make(chan struct{}), make(chan struct{})
		order := make(chan int, 3) // report count of each scatter task, in execution order
		cfg := DefaultConfig(origin())
		cfg.Seed, cfg.Workers, cfg.TasksPerJob = seed, 1, 1
		cfg.EnableControl, cfg.SampleEvery = true, time.Hour // the test ticks
		cfg.Tuner.MaxWorkers = 1
		cfg.WrapExec = func(exec workqueue.Executor) workqueue.Executor {
			return func(ctx context.Context, p []byte) ([]byte, error) {
				if t, err := parseTask(p); err == nil {
					if t.n == 1 { // the job that keeps the worker busy
						held <- struct{}{}
						<-release
					}
					select {
					case order <- t.n:
					default: // a retried copy
					}
				}
				return exec(ctx, p)
			}
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Start(context.Background())
		submit := func(claim socialsensing.ClaimID, reports int, deadline time.Duration) {
			if err := m.SubmitJob(claim, flipReports(claim, reports, reports/2, 1, 0.1, 1), deadline); err != nil {
				t.Fatal(err)
			}
		}
		submit("busy", 1, 0)
		<-held
		submit("late", 10, time.Nanosecond)
		submit("lax", 20, time.Hour)
		m.controlStep(m.ctx)
		close(release)
		drain(t, m, 3)
		m.Close()
		if busy, first := <-order, <-order; busy != 1 || first != 10 {
			t.Fatalf("seed %d: scatter tasks ran in the order %d, %d reports; want the late job's 10 right after the busy job's 1", seed, busy, first)
		}
	}
}

func TestManagerProgress(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.Workers = 1
	cfg.WrapExec = perReportDelay(time.Millisecond) // keep the job in flight briefly
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("slow", flipReports("slow", 10, 5, 5, 0.1, 1), time.Minute); err != nil {
		t.Fatal(err)
	}
	// Shortly after submission the job must be visible in Progress.
	deadline := time.Now().Add(5 * time.Second)
	var seen bool
	for time.Now().Before(deadline) {
		prog := m.Progress()
		if len(prog) == 1 {
			p := prog[0]
			// Four scatter tasks and the decode task that follows them.
			if p.Claim != "slow" || p.Tasks != cfg.TasksPerJob+1 || p.TasksDone > p.Tasks || p.Deadline != time.Minute {
				t.Fatalf("progress = %+v", p)
			}
			seen = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !seen {
		t.Fatal("job never appeared in Progress")
	}
	drain(t, m, 1)
	if got := m.Progress(); len(got) != 0 {
		t.Errorf("completed job still in Progress: %+v", got)
	}
}

func TestManagerValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	cfg := DefaultConfig(origin())
	cfg.Workers = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative worker count accepted")
	}
	cfg.Workers, cfg.EnableControl = 0, true
	if _, err := New(cfg); err == nil {
		t.Error("control loop accepted with no pool to resize")
	}
	cfg = DefaultConfig(origin())
	cfg.Decoder.Train.Tolerance = math.NaN()
	if _, err := New(cfg); err == nil {
		t.Error("a decoder configuration the workers' parser refuses accepted")
	}
	cfg = DefaultConfig(origin())
	cfg.TasksPerJob, cfg.SampleEvery = 0, 0
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.cfg.TasksPerJob != 4 || m.cfg.SampleEvery != time.Second {
		t.Errorf("zero TasksPerJob and SampleEvery became %d and %s, want 4 and 1s", m.cfg.TasksPerJob, m.cfg.SampleEvery)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("", nil, 0); err == nil {
		t.Error("empty claim accepted")
	}
}

func TestSampleEveryFor(t *testing.T) {
	for deadline, want := range map[time.Duration]time.Duration{
		0:                      time.Second,
		150 * time.Millisecond: 15 * time.Millisecond,
		time.Minute:            time.Second,
	} {
		if got := SampleEveryFor(deadline); got != want {
			t.Errorf("SampleEveryFor(%s) = %s, want %s", deadline, got, want)
		}
	}
}

// TestConcurrentDuplicateSubmit: of the submits of one claim that race
// each other past the pre-check, exactly one registers the job.
func TestConcurrentDuplicateSubmit(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.Workers = 0 // nothing runs: every job stays registered
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	const rounds, racers = 10, 8
	for k := 0; k < rounds; k++ {
		claim := socialsensing.ClaimID(fmt.Sprintf("c%d", k))
		reports := flipReports(claim, 100, 50, 20, 0.1, int64(k)) // an encode long enough to race
		start, errs := make(chan struct{}), make(chan error, racers)
		for range racers {
			go func() {
				<-start
				errs <- m.SubmitJob(claim, reports, 0)
			}()
		}
		close(start)
		accepted := 0
		for range racers {
			if <-errs == nil {
				accepted++
			}
		}
		if accepted != 1 {
			t.Fatalf("%d of %d concurrent submits of %s accepted, want 1", accepted, racers, claim)
		}
	}
	if got := len(m.Progress()); got != rounds {
		t.Errorf("%d jobs registered, want %d", got, rounds)
	}
}

// scatterResult runs scatter task i of job claim, which no worker was
// given, and returns its result as a worker would deliver it.
func scatterResult(t *testing.T, m *Manager, claim string, i int) workqueue.Result {
	t.Helper()
	m.mu.Lock()
	payload := m.jobs[claim].buf.payloads[i]
	m.mu.Unlock()
	out, err := ExecuteTask(context.Background(), payload)
	if err != nil {
		t.Fatal(err)
	}
	return workqueue.Result{TaskID: fmt.Sprintf("%s/%d", claim, i), JobID: claim, Output: out}
}

// TestDuplicateResultCountsOnce: a task requeued while its first copy was
// still running can answer twice. The first answer counts, once, toward
// the job's tasks done and its remaining reports, which the control loop
// predicts the job's finish from.
func TestDuplicateResultCountsOnce(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.Workers, cfg.TasksPerJob = 0, 2 // no pool: the test delivers the results
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("c", flipReports("c", 10, 5, 2, 0.1, 1), 0); err != nil {
		t.Fatal(err)
	}
	r := scatterResult(t, m, "c", 0)
	m.handleResult(m.ctx, r)
	m.handleResult(m.ctx, r)
	if p := m.Progress(); len(p) != 1 || p[0].TasksDone != 1 || p[0].Remaining != 10 {
		t.Errorf("progress after one task's result delivered twice: %+v, want 1 task done and 10 of 20 reports left", p)
	}
}

// TestRefusedDecodeTaskFailsJob: a job whose decode task the master
// refuses (it has shut down) ends with that error instead of staying in
// flight.
func TestRefusedDecodeTaskFailsJob(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.Workers, cfg.TasksPerJob = 0, 1 // no pool: the test delivers the result
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("c", flipReports("c", 10, 5, 2, 0.1, 1), 0); err != nil {
		t.Fatal(err)
	}
	r := scatterResult(t, m, "c", 0)
	m.master.Shutdown()
	m.handleResult(m.ctx, r)
	if res := drain(t, m, 1)[0]; res.Err == nil || !strings.Contains(res.Err.Error(), "submit decode task") {
		t.Errorf("result %+v, want the refused decode task's error", res)
	}
	if p := m.Progress(); len(p) != 0 {
		t.Errorf("the failed job is still in flight: %+v", p)
	}
}

// TestPriorityForUnknownJobIgnored: a tuner decision for a job the manager
// no longer holds (one that finished after the tick sampled it) must not
// reach the master, which would keep the weight until the claim's next job
// and schedule that job by it. Here the decision comes before claim c's
// job: with it ignored, c's task and d's are a fair pick for the one
// worker, and c's comes first for some scheduler seed.
func TestPriorityForUnknownJobIgnored(t *testing.T) {
	cFirst := 0
	for seed := int64(1); seed <= 20; seed++ {
		first := make(chan int, 2) // report count of each scatter task, in execution order
		cfg := DefaultConfig(origin())
		cfg.Seed, cfg.Workers, cfg.TasksPerJob = seed, 0, 1
		cfg.WrapExec = func(exec workqueue.Executor) workqueue.Executor {
			return func(ctx context.Context, p []byte) ([]byte, error) {
				if t, err := parseTask(p); err == nil {
					select {
					case first <- t.n:
					default: // a retried copy; the first two are in
					}
				}
				return exec(ctx, p)
			}
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Start(context.Background())
		m.setPriority("c", shedPriority)
		if err := m.SubmitJob("c", flipReports("c", 10, 5, 1, 0.1, 1), 0); err != nil {
			t.Fatal(err)
		}
		if err := m.SubmitJob("d", flipReports("d", 10, 5, 2, 0.1, 2), 0); err != nil {
			t.Fatal(err)
		}
		m.pool.Resize(context.Background(), 1)
		drain(t, m, 2)
		m.Close()
		if <-first == 10 {
			cFirst++
		}
	}
	if cFirst == 0 {
		t.Error("claim c's task never ran first in 20 seeds: it ran at a weight set before the job existed")
	}
}

func TestSplitReports(t *testing.T) {
	mk := func(n int) []socialsensing.Report {
		rs := make([]socialsensing.Report, n)
		for i := range rs {
			rs[i].Source = socialsensing.SourceID(fmt.Sprintf("s%d", i))
		}
		return rs
	}
	tests := []struct {
		n, chunks int
		sizes     []int
	}{
		{10, 4, []int{3, 3, 2, 2}},
		{3, 4, []int{1, 1, 1}},
		{0, 4, []int{0}},
		{5, 1, []int{5}},
		{7, 0, []int{7}},
	}
	for _, tt := range tests {
		got := splitReports(mk(tt.n), tt.chunks)
		var sizes []int
		total := 0
		for _, c := range got {
			sizes = append(sizes, len(c))
			total += len(c)
		}
		if !reflect.DeepEqual(sizes, tt.sizes) {
			t.Errorf("splitReports(%d, %d) sizes = %v, want %v", tt.n, tt.chunks, sizes, tt.sizes)
		}
		if total != tt.n {
			t.Errorf("splitReports(%d, %d) lost reports: %d", tt.n, tt.chunks, total)
		}
	}
}

func TestWindowedSeries(t *testing.T) {
	// The worker windows the merged sums with core.Window, in score units.
	one := int64(core.ScoreOne)
	out := outputOf(map[int]int64{0: one, 1: one, 3: -one})
	decode := append(appendDecodeHeader(nil, 2, DefaultConfig(origin()).Decoder), out...)
	var got []float64
	if _, err := readDecodeTask(decode, &got); err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 2, 1, -1}; !reflect.DeepEqual(got, want) {
		t.Errorf("decode task series = %v, want %v", got, want)
	}
	// A decode task never carries a window under one interval: the header
	// clamps it, as the master-side window always was.
	_, window, _, err := parseDecodeHeader(appendDecodeHeader(nil, 0, DefaultConfig(origin()).Decoder))
	if err != nil || window != 1 {
		t.Errorf("window 0 travels as %d, %v; want 1", window, err)
	}
}
