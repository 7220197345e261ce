package main

import (
	"fmt"
	"time"

	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/tracegen"
)

// workload is one set of inputs plus the way they are offered to the
// system. The four below are fixed: later issues refer to them by name.
type workload struct {
	name string
	// why is the one-line reason BENCHMARK.json records; README.md has
	// the long form.
	why string

	profile func() tracegen.Profile
	scale   float64
	// interval is the ACS grid step (the HMM time step).
	interval time.Duration

	// replay selects the single-process pipeline path; the remaining
	// fields describe the cluster path. For a replay workload they give
	// the shape its per-layer pass pushes the same reports through.
	replay bool

	tasksPerJob int
	taskBatch   int
	// outstanding is the closed-loop concurrency; 0 selects the open
	// loop at rate jobs per second.
	outstanding int
	rate        float64
	deadline    time.Duration
	control     bool
}

// clusterWorkers is fixed at the box's core count: one OS process, two
// in-process workers over net.Pipe.
const clusterWorkers = 2

// decodeEvery is how many posts pipeline_replay ingests between two
// Engine.DecodeAll calls.
const decodeEvery = 2000

var workloads = []workload{
	{
		name:    "decode_heavy",
		why:     "minute-grid Boston jobs: master-side HMM train+Viterbi dwarfs payload and wire, so kernel or decode-placement changes show here and payload changes must not",
		profile: tracegen.BostonBombing, scale: 0.05, interval: time.Minute,
		tasksPerJob: 4, outstanding: 4,
	},
	{
		name:    "payload_heavy",
		why:     "hour-grid Boston jobs of ~6.9k reports with tweet text: payload marshal/unmarshal and bytes on the wire dominate, decode is almost free; mirror image of decode_heavy",
		profile: tracegen.BostonBombing, scale: 0.5, interval: time.Hour,
		tasksPerJob: 4, outstanding: 4,
	},
	{
		name:    "stream_deadline",
		why:     "open-loop Poisson arrivals at 40 jobs/s with 150 ms deadlines, PID loop closed and batched frames: the paper's deployment shape, timed from each job's due instant",
		profile: tracegen.CollegeFootball, scale: 0.05, interval: time.Minute,
		tasksPerJob: 8, taskBatch: 8, rate: 40, deadline: 150 * time.Millisecond, control: true,
	},
	{
		name:    "pipeline_replay",
		why:     "raw posts through cluster, score, ingest and periodic warm DecodeAll in one thread: the single-node baseline and the only user of clustering/contrib/nlp and cached models",
		profile: tracegen.BostonBombing, scale: 0.25, interval: time.Minute,
		replay: true, tasksPerJob: 4, outstanding: 4,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// acs is the ACS configuration every path of the workload shares: the
// cluster, the single-node reference and the replay engine.
func (w workload) acs() core.ACSConfig {
	cfg := core.DefaultACSConfig()
	cfg.Interval = w.interval
	return cfg
}

// claimJob is one claim's report stream, the input of a TD job.
type claimJob struct {
	claim   socialsensing.ClaimID
	reports []socialsensing.Report
}

// inputs is everything a run derives from the seed.
type inputs struct {
	trace *socialsensing.Trace
	// jobs holds one entry per claim in the trace's claim order; jobs
	// are offered round-robin over it.
	jobs []claimJob
}

// synthesize builds the workload's inputs from the seed alone. tiny
// shrinks the trace for the smoke test.
func (w workload) synthesize(seed int64, tiny bool) (*inputs, error) {
	gen, err := tracegen.New(w.profile(), seed)
	if err != nil {
		return nil, err
	}
	scale := w.scale
	if tiny {
		scale = 0.004
	}
	tr, err := gen.Generate(scale)
	if err != nil {
		return nil, err
	}
	by := tr.ReportsByClaim()
	in := &inputs{trace: tr}
	for _, c := range tr.Claims {
		if len(by[c.ID]) > 0 {
			in.jobs = append(in.jobs, claimJob{claim: c.ID, reports: by[c.ID]})
		}
	}
	if len(in.jobs) == 0 {
		return nil, fmt.Errorf("workload %s: trace has no reports", w.name)
	}
	return in, nil
}
