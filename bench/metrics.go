package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
)

// metric is one named measurement; the names and units below are the
// benchmark's vocabulary and must match BENCHMARK.json (bench_test.go
// checks that they do).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd metrics are measured with tracing off; every workload emits
// every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"posts_per_s", "1/s"},
	{"deadline_hit_rate", "ratio"},
	{"truth_accuracy", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer metrics come from the traced pass; the prefix names the
// package (or, for job/proc/gen/trace, the outside view) they describe.
var perLayer = []metricDef{
	{"job.latency_c1_p50_ms", "ms"},
	{"job.dispatch_share", "ratio"},
	{"job.exec_span_share", "ratio"},
	{"job.tail_share", "ratio"},
	{"job.latency_p50_ms", "ms"},
	{"job.latency_p95_ms", "ms"},
	{"job.latency_p99_ms", "ms"},
	{"hmm.train_us_per_claim", "us"},
	{"hmm.viterbi_ns_per_interval", "ns"},
	{"hmm.em_iterations_per_claim", "count"},
	{"core.decode_us_per_claim", "us"},
	{"core.warm_decode_us_per_claim", "us"},
	{"core.acs_add_ns_per_report", "ns"},
	{"core.ingest_ns_per_report", "ns"},
	{"dtm.submit_us_per_job", "us"},
	{"dtm.exec_us_per_task", "us"},
	{"dtm.payload_bytes_per_report", "B"},
	{"dtm.output_bytes_per_task", "B"},
	{"dtm.tail_us_per_job", "us"},
	{"dtm.tail_minus_decode_us", "us"},
	{"dtm.collector_busy_share_est", "ratio"},
	{"workqueue.dispatch_us_per_job", "us"},
	{"workqueue.wire_bytes_per_task_m2w", "B"},
	{"workqueue.wire_bytes_per_task_w2m", "B"},
	{"workqueue.frames_per_task", "count"},
	{"workqueue.framing_overhead_bytes_per_task", "B"},
	{"workqueue.noop_roundtrip_us_p50", "us"},
	{"workqueue.noop_tasks_per_s", "1/s"},
	{"workqueue.noop_batch_roundtrip_us_p50", "us"},
	{"workqueue.noop_batch_tasks_per_s", "1/s"},
	{"workqueue.worker_busy_share", "ratio"},
	{"workqueue.task_wait_ms_mean", "ms"},
	{"workqueue.tasks_requeued", "count"},
	{"clustering.assign_us_per_post", "us"},
	{"contrib.score_us_per_post", "us"},
	{"control.ticks", "count"},
	{"control.pool_resizes", "count"},
	{"control.workers_final", "count"},
	{"obs.plane_on_jobs_per_s_ratio", "ratio"},
	{"proc.alloc_bytes_per_job", "B"},
	{"proc.gc_cpu_share", "ratio"},
	{"proc.gc_pause_max_ms", "ms"},
	{"gen.lateness_p99_ms", "ms"},
	{"gen.submitter_busy_share", "ratio"},
	{"trace.overhead_pct", "%"},
}

// runResult is the contract's result line.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// collect turns measured values into the named, unit-carrying form and
// refuses a set that does not match defs exactly.
func collect(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	if len(values) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, catalogue has %d", len(values), len(defs))
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// Generator limits for the open loop: past these the numbers describe the
// load generator (or a host that stalled under it), not the system, and
// the run says so on standard error. It does not fail the run: correct
// speaks for the outputs, and on a shared host a slow half minute is
// weather that the medians over repeated runs are there to absorb.
// Lateness is judged at p95 against a tenth of the 150 ms deadline. Its
// p99 cannot be judged on this box: a bare timer wake-up runs 18 ms late
// at p99 on the idle VM, and under this load the generator shares two Ps
// with decodes that run 9 ms without a preemption point (p95 ~6 ms, p99
// ~10 ms, 33 ms seen once in 18 runs). gen.lateness_p99_ms reports it.
const (
	maxLatenessP95Ms = 15.0
	maxSubmitterBusy = 0.5
)

// A run repeats its set-up and reports the median as setup_s: at least
// minSetupRounds times, and on while the rounds are cheap, because a
// 40 ms set-up needs more samples for a steady median than a 600 ms one.
// Each round starts from a collected heap, so that whether a GC cycle
// falls inside a round (a third of a small set-up) is not left to chance.
const (
	minSetupRounds = 3
	maxSetupRounds = 25
	setupBudget    = 1500 * time.Millisecond
)

// runSpec is one invocation: a workload, a seed and a time budget.
type runSpec struct {
	w       workload
	seed    int64
	seconds float64
	// tiny shrinks the inputs; only the smoke test sets it.
	tiny bool
}

func (s runSpec) share(f float64) time.Duration {
	return time.Duration(f * s.seconds * float64(time.Second))
}

// warmup is discarded time in front of a measured window: pools,
// workspaces and connections fill, the heap reaches its working size.
func (s runSpec) warmup(max time.Duration) time.Duration {
	if w := s.share(0.1); w < max {
		return w
	}
	return max
}

// setUp performs the workload's set-up once and returns the inputs and
// how long it took: trace synthesis, then either cluster construction up
// to the last worker's registration or pipeline construction.
func (s runSpec) setUp() (*inputs, time.Duration, error) {
	start := time.Now()
	in, err := s.w.synthesize(s.seed, s.tiny)
	if err != nil {
		return nil, 0, err
	}
	if s.w.replay {
		if _, err := newPipeline(s.w, in); err != nil {
			return nil, 0, err
		}
		return in, time.Since(start), nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := newManager(ctx, s.w, in, clusterOpts{seed: s.seed})
	if err != nil {
		return nil, 0, err
	}
	d := time.Since(start)
	m.Close()
	return in, d, nil
}

// timedRun measures the end-to-end metrics with tracing off.
func timedRun(s runSpec) (*runResult, error) {
	var in *inputs
	var setups []float64
	for spent := time.Duration(0); len(setups) < minSetupRounds || (len(setups) < maxSetupRounds && spent < setupBudget); {
		var d time.Duration
		var err error
		runtime.GC()
		if in, d, err = s.setUp(); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		spent += d
	}
	v := map[string]float64{"setup_s": median(setups)}
	res := &runResult{}
	warmup, measure := s.warmup(2*time.Second), s.share(1)

	if s.w.replay {
		r, err := runReplay(s.w, in, warmup, measure)
		if err != nil {
			return nil, err
		}
		if r.firstFail != nil {
			warnf("%s: %v", s.w.name, r.firstFail)
		}
		// A replay job is one round: decodeEvery posts ingested and every
		// claim's timeline brought up to date.
		res.Attempted, res.Failed = r.posts+r.rounds, r.failed
		v["jobs_per_s"] = float64(r.rounds) / r.window.Seconds()
		v["posts_per_s"] = float64(r.posts) / r.window.Seconds()
		v["deadline_hit_rate"] = 1 - ratio(float64(r.failed), float64(res.Attempted))
		v["truth_accuracy"] = r.accuracy
	} else {
		refs, err := buildRefs(s.w, in)
		if err != nil {
			return nil, err
		}
		r, err := runCluster(s.w, in, refs, clusterOpts{warmup: warmup, measure: measure, seed: s.seed})
		if err != nil {
			return nil, err
		}
		if r.firstFailure != nil {
			warnf("%s: %v", s.w.name, r.firstFailure)
		}
		res.Attempted, res.Failed = r.attempted, r.failed
		v["jobs_per_s"] = float64(r.completed) / r.window.Seconds()
		v["posts_per_s"] = float64(r.reports) / r.window.Seconds()
		v["deadline_hit_rate"] = ratio(float64(r.hits), float64(r.attempted))
		v["truth_accuracy"] = r.accuracy
		warnIfOffSchedule(s.w, r)
	}
	v["peak_rss_mb"] = peakRSSMB()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	var err error
	res.Metrics, err = collect(endToEnd, v)
	return res, err
}

// warnIfOffSchedule says so when an open loop did not keep its schedule.
func warnIfOffSchedule(w workload, r *clusterResult) {
	if w.outstanding > 0 {
		return
	}
	late, busy := percentile(r.lateness, 0.95), submitterBusy(r)
	if late > maxLatenessP95Ms || busy > maxSubmitterBusy {
		warnf("%s: generator off schedule (lateness p95 %.2f ms, submitter busy %.2f): the numbers measure the generator", w.name, late, busy)
	}
}

func submitterBusy(r *clusterResult) float64 {
	total := 0.0
	for _, d := range r.submitDur {
		total += d
	}
	return total / us(r.window)
}

// tracedRun measures the per-layer metrics. Every phase runs the
// workload's own inputs; the cluster phases use the workload's cluster
// shape (for pipeline_replay: the shape its reports would run under).
func tracedRun(s runSpec) (*runResult, error) {
	in, err := s.w.synthesize(s.seed, s.tiny)
	if err != nil {
		return nil, err
	}
	refs, err := buildRefs(s.w, in)
	if err != nil {
		return nil, err
	}
	v := make(map[string]float64, len(perLayer))
	res := &runResult{}
	phase := func(name string, o clusterOpts) (*clusterResult, error) {
		o.seed = s.seed
		r, err := runCluster(s.w, in, refs, o)
		if err != nil {
			return nil, fmt.Errorf("%s phase: %w", name, err)
		}
		if r.firstFailure != nil {
			warnf("%s %s phase: %v", s.w.name, name, r.firstFailure)
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		return r, nil
	}
	warmup := s.warmup(time.Second)

	// Phase 1, one job outstanding with taps: every executor call and
	// wire byte between a SubmitJob and its JobResult belongs to that
	// job, so the three stages are contiguous and sum to the latency.
	c1, err := phase("c1", clusterOpts{warmup: warmup / 2, measure: s.share(0.15), outstanding: 1, taps: newTaps()})
	if err != nil {
		return nil, err
	}
	var total, dispatch, span, tail []float64
	for _, st := range c1.stages {
		total = append(total, ms(st.result-st.submit))
		dispatch = append(dispatch, us(st.firstEntry-st.submit))
		span = append(span, us(st.lastExit-st.firstEntry))
		tail = append(tail, us(st.result-st.lastExit))
	}
	sum := mean(dispatch) + mean(span) + mean(tail)
	v["job.latency_c1_p50_ms"] = median(total)
	v["job.dispatch_share"] = mean(dispatch) / sum
	v["job.exec_span_share"] = mean(span) / sum
	v["job.tail_share"] = mean(tail) / sum
	v["workqueue.dispatch_us_per_job"] = median(dispatch)
	v["dtm.tail_us_per_job"] = median(tail)

	// Phase 2, the workload's normal load with nothing installed: the
	// reference the taps' and the observability plane's cost is set
	// against, and the window the Go runtime's figures are read over.
	plain, err := phase("plain", clusterOpts{warmup: warmup, measure: s.share(0.25)})
	if err != nil {
		return nil, err
	}
	plainRate := float64(plain.completed) / plain.window.Seconds()
	v["job.latency_p50_ms"] = percentile(plain.latencies, 0.5)
	v["job.latency_p95_ms"] = percentile(plain.latencies, 0.95)
	v["job.latency_p99_ms"] = percentile(plain.latencies, 0.99)
	v["proc.alloc_bytes_per_job"] = ratio(plain.proc1.allocBytes-plain.proc0.allocBytes, float64(plain.completed))
	v["proc.gc_cpu_share"] = ratio(plain.proc1.gcCPU-plain.proc0.gcCPU, plain.proc1.totalCPU-plain.proc0.totalCPU)
	v["proc.gc_pause_max_ms"] = plain.proc1.maxPauseSince(plain.proc0)

	// Phase 3, the same load with taps: busy shares, waiting and bytes.
	tp := newTaps()
	rec := obs.NewControlRecorder(0)
	loaded, err := phase("loaded", clusterOpts{warmup: warmup, measure: s.share(0.25), taps: tp, controlLog: rec})
	if err != nil {
		return nil, err
	}
	tasks := float64(tp.calls)
	v["dtm.submit_us_per_job"] = mean(loaded.submitDur)
	v["dtm.exec_us_per_task"] = ratio(us(tp.busy), tasks)
	v["dtm.payload_bytes_per_report"] = ratio(float64(tp.payloadBytes), float64(loaded.reportsTotal))
	v["dtm.output_bytes_per_task"] = ratio(float64(tp.outputBytes), tasks)
	m2w, w2m := float64(tp.m2wBytes.Load()), float64(tp.w2mBytes.Load())
	v["workqueue.wire_bytes_per_task_m2w"] = ratio(m2w, tasks)
	v["workqueue.wire_bytes_per_task_w2m"] = ratio(w2m, tasks)
	v["workqueue.frames_per_task"] = ratio(float64(tp.m2wFrames.Load()+tp.w2mFrames.Load()), tasks)
	v["workqueue.framing_overhead_bytes_per_task"] = ratio(m2w+w2m-float64(tp.payloadBytes+tp.outputBytes), tasks)
	v["workqueue.worker_busy_share"] = ratio(float64(tp.busy), float64(clusterWorkers)*float64(loaded.elapsed))
	// Mean wait of a task between its job's SubmitJob returning and its
	// executor starting. Which task belongs to which job is not visible
	// under load without reading payloads, but the mean needs only sums.
	v["workqueue.task_wait_ms_mean"] = (ratio(tp.entrySum, tasks) - ratio(loaded.submitEndSum, float64(loaded.jobsTotal))) / float64(time.Millisecond)
	v["workqueue.tasks_requeued"] = tasks - float64(loaded.tasksTotal)
	v["gen.lateness_p99_ms"] = percentile(loaded.lateness, 0.99)
	v["gen.submitter_busy_share"] = submitterBusy(loaded)
	v["trace.overhead_pct"] = 100 * (1 - ratio(float64(loaded.completed)/loaded.window.Seconds(), plainRate))
	ticks, resizes := controlActivity(rec)
	v["control.ticks"] = ticks
	v["control.pool_resizes"] = resizes
	v["control.workers_final"] = float64(loaded.workersFinal)
	warnIfOffSchedule(s.w, loaded)

	// Phase 4, the plain load again with metrics, tracer and logger wired.
	plane, err := phase("plane", clusterOpts{warmup: warmup, measure: s.share(0.2), plane: true})
	if err != nil {
		return nil, err
	}
	v["obs.plane_on_jobs_per_s_ratio"] = ratio(float64(plane.completed)/plane.window.Seconds(), plainRate)

	// Phase 5, workqueue alone under opaque payloads of this workload's
	// mean task size: lock-step frames, then batches of 8.
	payload := int(ratio(float64(tp.payloadBytes), tasks))
	for _, mode := range []struct {
		prefix string
		batch  int
	}{{"workqueue.noop_", 0}, {"workqueue.noop_batch_", 8}} {
		n, err := runNoop(payload, mode.batch, 2*clusterWorkers*max(mode.batch, 1), s.share(0.05))
		if err != nil {
			return nil, err
		}
		v[mode.prefix+"roundtrip_us_p50"] = n.roundtripP50Us
		v[mode.prefix+"tasks_per_s"] = n.tasksPerS
	}

	// Phase 6, each layer's exported API called directly.
	iso, err := measureIsolated(s.w, in)
	if err != nil {
		return nil, err
	}
	v["hmm.train_us_per_claim"] = iso.trainUsPerClaim
	v["hmm.viterbi_ns_per_interval"] = iso.viterbiNsPerInterval
	v["hmm.em_iterations_per_claim"] = iso.emIterationsPerClaim
	v["core.decode_us_per_claim"] = iso.decodeUsPerClaim
	v["core.warm_decode_us_per_claim"] = iso.warmDecodeUsPerClaim
	v["core.acs_add_ns_per_report"] = iso.acsAddNsPerReport
	v["core.ingest_ns_per_report"] = iso.ingestNsPerReport
	v["clustering.assign_us_per_post"] = iso.clusterAssignUsPerPost
	v["contrib.score_us_per_post"] = iso.contribScoreUsPerPost
	v["dtm.tail_minus_decode_us"] = v["dtm.tail_us_per_job"] - iso.decodeUsPerClaim
	v["dtm.collector_busy_share_est"] = plainRate * iso.decodeUsPerClaim / 1e6

	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Metrics, err = collect(perLayer, v)
	return res, err
}

// controlActivity counts the PID steps that acted and how many of them
// changed the pool size.
func controlActivity(rec *obs.ControlRecorder) (ticks, resizes float64) {
	lastTick, lastGCK := -1, clusterWorkers
	for _, s := range rec.Samples() {
		if s.Tick == lastTick {
			continue
		}
		ticks++
		if s.GCK != lastGCK {
			resizes++
		}
		lastTick, lastGCK = s.Tick, s.GCK
	}
	return ticks, resizes
}
