package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/social-sensing/sstd/internal/dtm"
	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/socialsensing"
)

// drainTimeout is how long a run waits for outstanding jobs after its
// window closes; a job still missing then counts as failed. A healthy run
// drains in milliseconds. The issue's 5 s turned a backlog left by a
// stalled host into failures, where it is already charged as deadline
// misses; only a cluster that has stopped answering should fail the run.
const drainTimeout = 30 * time.Second

// clusterOpts selects how one cluster run differs from the workload's
// timed run.
type clusterOpts struct {
	warmup, measure time.Duration
	seed            int64
	// outstanding > 0 forces a closed loop at that concurrency.
	outstanding int
	// taps installs the executor and connection hooks; nil is tracing off.
	taps *taps
	// plane wires a metrics registry, tracer and logger into the cluster.
	plane bool
	// controlLog records PID ticks when the workload closes the loop.
	controlLog *obs.ControlRecorder
}

// clusterResult is what one run of the cluster observed from outside.
type clusterResult struct {
	window time.Duration

	attempted, failed int
	firstFailure      error
	// completed counts correct results received inside the window and
	// reports the reports they carried.
	completed, reports int
	// latencies (ms) are those of attempted jobs that completed correctly:
	// from submit in a closed loop, from the due instant in an open one.
	latencies []float64
	hits      int
	accuracy  float64

	// submitDur is the duration of each attempted SubmitJob call (µs).
	submitDur []float64
	// lateness (ms) is how long the generator took to act on each
	// attempted job: from the due instant to the fire instant in an open
	// loop, from a slot falling free to the next submit in a closed one.
	lateness     []float64
	workersFinal int

	// stages are the per-job marks of a one-outstanding run with taps.
	stages []jobStages
	// The totals below cover every job of the run, warm-up and drain
	// included, so they pair with what the taps accumulated. submitEndSum
	// adds up the SubmitJob return instants (ns since taps.base); taps
	// holds the matching sum of executor entries.
	submitEndSum                        float64
	jobsTotal, tasksTotal, reportsTotal int
	// elapsed runs from the first submit to the end of the drain.
	elapsed      time.Duration
	proc0, proc1 procSnap
}

// poissonSchedule returns the due instants of an open loop: the warm-up
// and the measured window each hold exactly rate x length arrivals at
// independent uniform instants. That is a Poisson process conditioned on
// its count, so arrivals bunch and thin as independent users' would, but
// every seed offers the same load.
func poissonSchedule(seed int64, rate float64, begin time.Time, spans ...time.Duration) []time.Time {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Time
	for _, span := range spans {
		offsets := make([]float64, int(math.Round(rate*span.Seconds())))
		for i := range offsets {
			offsets[i] = rng.Float64() * float64(span)
		}
		sort.Float64s(offsets)
		for _, off := range offsets {
			due = append(due, begin.Add(time.Duration(off)))
		}
		begin = begin.Add(span)
	}
	return due
}

// jobStages are the four instants that cut one job's latency into the
// dispatch, exec-span and tail stages.
type jobStages struct {
	submit, firstEntry, lastExit, result time.Duration
}

type jobRec struct {
	idx      int
	start    time.Time // submit instant (closed) or due instant (open)
	measured bool
}

// newManager builds and starts the workload's cluster and returns once
// every worker has registered with the master.
func newManager(ctx context.Context, w workload, in *inputs, o clusterOpts) (*dtm.Manager, error) {
	cfg := dtm.DefaultConfig(in.trace.Start)
	cfg.ACS = w.acs()
	cfg.TasksPerJob = w.tasksPerJob
	cfg.TaskBatch = w.taskBatch
	cfg.Workers = clusterWorkers
	cfg.Seed = o.seed
	if w.control && o.outstanding == 0 {
		cfg.EnableControl = true
		cfg.Tuner.MaxWorkers = 4
		// The paper samples at 1 Hz against minute-scale deadlines; a
		// 150 ms deadline needs the loop to look more often than that.
		cfg.SampleEvery = 100 * time.Millisecond
		cfg.ControlLog = o.controlLog
	}
	if o.taps != nil {
		cfg.WrapExec = o.taps.wrapExec
		cfg.WrapConn = o.taps.wrapConn
	}
	if o.plane {
		cfg.Metrics = obs.NewRegistry()
		cfg.Tracer = obs.NewTracer(1 << 14)
		cfg.Logger = obs.NewLogger(io.Discard, obs.LevelInfo, 1<<10)
	}
	m, err := dtm.New(cfg)
	if err != nil {
		return nil, err
	}
	m.Start(ctx)
	// Yield rather than sleep while the workers register: this wait is
	// part of setup_s, registration takes ~200 µs, and a timer on this VM
	// fires anywhere from 0.6 to 18 ms late.
	for start := time.Now(); len(m.ClusterHealth()) < clusterWorkers; runtime.Gosched() {
		if time.Since(start) > drainTimeout {
			m.Close()
			return nil, fmt.Errorf("only %d of %d workers registered", len(m.ClusterHealth()), clusterWorkers)
		}
	}
	return m, nil
}

// runCluster offers the workload's jobs to a fresh cluster for
// warmup+measure and checks every result.
func runCluster(w workload, in *inputs, refs []claimRef, o clusterOpts) (*clusterResult, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := newManager(ctx, w, in, o)
	if err != nil {
		return nil, err
	}
	res := &clusterResult{window: o.measure}

	outstanding := w.outstanding
	if o.outstanding > 0 {
		outstanding = o.outstanding
	}
	closed := outstanding > 0
	c1 := outstanding == 1 && o.taps != nil

	var (
		mu      sync.Mutex
		pending = make(map[socialsensing.ClaimID]jobRec)
		chk     = newChecker(refs)
	)
	fail := func(err error) { // callers hold mu
		res.failed++
		if res.firstFailure == nil {
			res.firstFailure = err
		}
	}
	begin := time.Now()
	t0 := begin.Add(o.warmup)
	t1 := t0.Add(o.measure)
	base := begin
	if o.taps != nil {
		base = o.taps.base
	}

	// tokens carries one permit per outstanding slot of a closed loop; the
	// collector returns a permit for every job that leaves the system.
	tokens := make(chan time.Time, outstanding+1)
	for i := 0; i < outstanding; i++ {
		tokens <- begin
	}
	var collector sync.WaitGroup
	collector.Add(1)
	go func() {
		defer collector.Done()
		for r := range m.Results() {
			now := time.Now()
			mu.Lock()
			rec, ok := pending[r.Claim]
			delete(pending, r.Claim)
			if !ok {
				fail(fmt.Errorf("result for unknown job %s", r.Claim))
				mu.Unlock()
				continue
			}
			err := r.Err
			if err == nil && r.Degraded {
				err = fmt.Errorf("job %s degraded: %d tasks lost", r.Claim, r.FailedTasks)
			}
			if err == nil {
				err = chk.check(rec.idx, r.Estimates)
			}
			if err == nil && !now.Before(t0) && now.Before(t1) {
				res.completed++
				res.reports += len(in.jobs[rec.idx].reports)
			}
			if rec.measured {
				lat := now.Sub(rec.start)
				switch {
				case err != nil:
					fail(err)
				default:
					res.latencies = append(res.latencies, ms(lat))
					if w.deadline == 0 || lat <= w.deadline {
						res.hits++
					}
				}
				if c1 && err == nil {
					first, last := o.taps.span()
					res.stages = append(res.stages, jobStages{
						submit: rec.start.Sub(base), firstEntry: first, lastExit: last, result: now.Sub(base),
					})
				}
			}
			mu.Unlock()
			if closed {
				tokens <- now
			}
		}
	}()

	submit := func(k int, start time.Time) {
		idx := k % len(in.jobs)
		id := socialsensing.ClaimID(fmt.Sprintf("%s#%d", in.jobs[idx].claim, k))
		measured := !start.Before(t0) && start.Before(t1)
		mu.Lock()
		pending[id] = jobRec{idx: idx, start: start, measured: measured}
		if measured {
			res.attempted++
		}
		mu.Unlock()
		if c1 {
			o.taps.resetSpan()
		}
		callStart := time.Now()
		err := m.SubmitJob(id, in.jobs[idx].reports, w.deadline)
		callEnd := time.Now()
		mu.Lock()
		res.submitEndSum += float64(callEnd.Sub(base))
		res.jobsTotal++
		res.tasksTotal += min(w.tasksPerJob, len(in.jobs[idx].reports))
		res.reportsTotal += len(in.jobs[idx].reports)
		if measured {
			res.submitDur = append(res.submitDur, us(callEnd.Sub(callStart)))
		}
		if err != nil {
			delete(pending, id)
			if measured {
				fail(fmt.Errorf("submit %s: %w", id, err))
			}
		}
		mu.Unlock()
		if err != nil && closed {
			tokens <- callEnd
		}
	}

	snapped := false
	snapAtT0 := func() {
		if !snapped && !time.Now().Before(t0) {
			res.proc0 = readProc()
			snapped = true
		}
	}
	if closed {
		for k := 0; ; k++ {
			free := <-tokens
			snapAtT0()
			now := time.Now()
			if !now.Before(t1) {
				break
			}
			if !now.Before(t0) {
				res.lateness = append(res.lateness, ms(now.Sub(free)))
			}
			submit(k, now)
		}
	} else {
		// The arrival schedule is a function of the seed alone, and nothing
		// the system does can delay it: SubmitJob is synchronous, so every
		// arrival submits on its own goroutine and this loop only sleeps
		// and fires. A late fire is recorded as generator lateness, and
		// latency runs from the due instant either way.
		var inFlight sync.WaitGroup
		for k, due := range poissonSchedule(o.seed, w.rate, begin, o.warmup, o.measure) {
			time.Sleep(time.Until(due))
			snapAtT0()
			if !due.Before(t0) {
				res.lateness = append(res.lateness, ms(time.Since(due)))
			}
			inFlight.Add(1)
			go func(k int, due time.Time) {
				defer inFlight.Done()
				submit(k, due)
			}(k, due)
		}
		time.Sleep(time.Until(t1))
		inFlight.Wait()
	}
	snapAtT0()
	res.proc1 = readProc()
	res.workersFinal = m.Workers()

	undrained := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(pending)
	}
	for drainStart := time.Now(); undrained() > 0 && time.Since(drainStart) < drainTimeout; {
		time.Sleep(time.Millisecond)
	}
	res.elapsed = time.Since(begin)
	if n := undrained(); n > 0 {
		// Manager.Close deadlocks while tasks are still completing: it stops
		// its collector first, and the pool's handlers it then waits for
		// block on the full results channel. So a cluster that did not drain
		// is abandoned, not closed: the run ends here, without a result.
		return nil, fmt.Errorf("%d jobs not drained within %s", n, drainTimeout)
	}
	m.Close()
	collector.Wait()
	res.accuracy = chk.accuracy()
	return res, nil
}
