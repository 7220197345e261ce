package control

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// JobStatus is one job's state as observed by the monitor at a sampling
// instant (the paper samples at 1 Hz by watching output-file timestamps).
type JobStatus struct {
	JobID string
	// Deadline is the job's soft deadline, as a duration from job start.
	Deadline time.Duration
	// Elapsed is how long the job has been running.
	Elapsed time.Duration
	// ExpectedFinish is the WCET-model prediction of total runtime from
	// the job's remaining data, current priority and pool size.
	ExpectedFinish time.Duration
}

// TunerConfig parameterizes knob actuation. Theta3 scales LCK (priority)
// moves, Theta4 scales GCK (pool size) moves; the paper sets them to 2 and
// 1.5 heuristically.
type TunerConfig struct {
	PID    PIDConfig
	Theta3 float64
	Theta4 float64
	// MinWorkers / MaxWorkers clamp the GCK.
	MinWorkers, MaxWorkers int
	// RelativeError normalizes the PID error by the deadline —
	// e = (expected - deadline) / deadline — making the controller
	// scale-free: the same gains work for millisecond interval deadlines
	// and minute-scale job deadlines. Absolute error (in seconds) is
	// used when false or when a job has no deadline.
	RelativeError bool
}

// maxStep clamps how many workers one sampling step may add or remove.
const maxStep = 8

// DefaultTunerConfig returns the paper's heuristic settings.
func DefaultTunerConfig() TunerConfig {
	return TunerConfig{
		PID:        DefaultPIDConfig(),
		Theta3:     2,
		Theta4:     1.5,
		MinWorkers: 1,
		MaxWorkers: 1024,
	}
}

// Decision is the tuner's actuation for one sampling step.
type Decision struct {
	// Priorities are the new LCK values per job, normalized to sum 1.
	Priorities map[string]float64
	// Workers is the new GCK value (target pool size).
	Workers int
	// Signals are the raw per-job PID outputs (positive = late).
	Signals map[string]float64
}

// Tuner drives one PID controller per TD job and converts the control
// signals into knob movements: late jobs gain priority share relative to
// early jobs (LCK synchronizes per-job progress) and the pool grows or
// shrinks with aggregate lateness (GCK tracks global load).
type Tuner struct {
	cfg      TunerConfig
	pids     map[string]*PID
	priority map[string]float64
	workers  int
}

// NewTuner creates a tuner starting from the given pool size.
func NewTuner(cfg TunerConfig, initialWorkers int) (*Tuner, error) {
	if cfg.MinWorkers < 1 {
		return nil, fmt.Errorf("control: MinWorkers must be >= 1, got %d", cfg.MinWorkers)
	}
	if cfg.MaxWorkers < cfg.MinWorkers {
		return nil, fmt.Errorf("control: MaxWorkers %d < MinWorkers %d", cfg.MaxWorkers, cfg.MinWorkers)
	}
	if initialWorkers < cfg.MinWorkers || initialWorkers > cfg.MaxWorkers {
		return nil, fmt.Errorf("control: initial workers %d outside [%d, %d]", initialWorkers, cfg.MinWorkers, cfg.MaxWorkers)
	}
	if cfg.Theta3 <= 0 || cfg.Theta4 <= 0 {
		return nil, fmt.Errorf("control: theta3/theta4 must be positive")
	}
	return &Tuner{
		cfg:      cfg,
		pids:     make(map[string]*PID),
		priority: make(map[string]float64),
		workers:  initialWorkers,
	}, nil
}

// PIDState returns the snapshot of one job's controller; ok is false when
// the job has no controller (never stepped, or left out of the last
// sample).
func (t *Tuner) PIDState(jobID string) (PIDState, bool) {
	pid, ok := t.pids[jobID]
	if !ok {
		return PIDState{}, false
	}
	return pid.Snapshot(), true
}

// Step ingests one monitoring sample for all live jobs and returns the
// actuation decision. dt is the sampling period. A job the sample leaves
// out has finished or been cancelled: its controller and priority go.
func (t *Tuner) Step(statuses []JobStatus, dt time.Duration) (Decision, error) {
	if dt <= 0 {
		return Decision{}, fmt.Errorf("control: dt must be positive, got %v", dt)
	}
	dec := Decision{
		Priorities: make(map[string]float64),
		Signals:    make(map[string]float64),
	}
	live := append([]JobStatus(nil), statuses...)
	sort.Slice(live, func(i, j int) bool { return live[i].JobID < live[j].JobID })

	totalSignal := 0.0
	for _, st := range live {
		pid, ok := t.pids[st.JobID]
		if !ok {
			pid = NewPID(t.cfg.PID)
			t.pids[st.JobID] = pid
			t.priority[st.JobID] = 1
		}
		// Error per Eq. 9's setpoint comparison: positive when the job
		// is predicted to miss its deadline.
		e := (st.ExpectedFinish - st.Deadline).Seconds()
		if t.cfg.RelativeError && st.Deadline > 0 {
			e = float64(st.ExpectedFinish-st.Deadline) / float64(st.Deadline)
		}
		sig, err := pid.Update(e, dt)
		if err != nil {
			return Decision{}, err
		}
		dec.Signals[st.JobID] = sig
		totalSignal += sig
	}
	for id := range t.pids {
		if _, ok := dec.Signals[id]; !ok {
			delete(t.pids, id)
			delete(t.priority, id)
		}
	}
	if len(live) == 0 {
		dec.Workers = t.workers
		return dec, nil
	}

	// LCK: move priority mass toward late jobs. The multiplicative update
	// exp(sig/theta3) keeps priorities positive; normalization makes them
	// the job-selection distribution of the scheduler.
	sum := 0.0
	for _, st := range live {
		p := t.priority[st.JobID] * math.Exp(dec.Signals[st.JobID]/t.cfg.Theta3)
		// Clamp to keep one runaway job from starving the rest.
		p = math.Max(1e-4, math.Min(1e4, p))
		t.priority[st.JobID] = p
		sum += p
	}
	for _, st := range live {
		dec.Priorities[st.JobID] = t.priority[st.JobID] / sum
	}

	// GCK: grow the pool when the aggregate signal says jobs are late,
	// shrink when comfortably early. The step is proportional to the
	// mean signal scaled by theta4, bounded per sample to avoid thrash.
	meanSig := totalSignal / float64(len(live))
	delta := clampInt(int(math.Round(meanSig*t.cfg.Theta4)), -maxStep, maxStep)
	t.workers = clampInt(t.workers+delta, t.cfg.MinWorkers, t.cfg.MaxWorkers)
	dec.Workers = t.workers
	return dec, nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
