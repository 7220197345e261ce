package obs

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// ControlSample is one job's slice of one PID sampling tick: the Eq. 9
// error and term decomposition, the actuated Local Control Knob (the
// job's priority share) and Global Control Knob (the pool size), and the
// WCET-model prediction the error was derived from (Eq. 10-12).
type ControlSample struct {
	// Seq numbers samples in record order; Tick groups the samples of
	// one controller step (all jobs sampled together share a tick).
	Seq  int       `json:"seq"`
	Tick int       `json:"tick"`
	Time time.Time `json:"time"`
	Job  string    `json:"job"`
	// Error is the PID input e(k); P, I and D are the gain-weighted term
	// contributions whose sum is Signal.
	Error  float64 `json:"error"`
	P      float64 `json:"p"`
	I      float64 `json:"i"`
	D      float64 `json:"d"`
	Signal float64 `json:"signal"`
	// LCK is the job's normalized priority after actuation; GCK is the
	// worker pool size after actuation.
	LCK float64 `json:"lck"`
	GCK int     `json:"gck"`
	// ExpectedFinishMs and DeadlineMs are the setpoint comparison of
	// Eq. 9 in milliseconds (DeadlineMs 0 = no deadline).
	ExpectedFinishMs float64 `json:"expectedFinishMs"`
	DeadlineMs       float64 `json:"deadlineMs"`
}

// WorkerSample is one worker's slice of one controller tick: the
// heartbeat-derived observation (EWMA exec time, task rate, liveness
// state, straggler flag) recorded next to the WCET-model per-task
// prediction (Eq. 10), so the observed and modeled per-worker throughput
// can be compared tick by tick.
type WorkerSample struct {
	Seq    int       `json:"seq"`
	Tick   int       `json:"tick"`
	Time   time.Time `json:"time"`
	Worker string    `json:"worker"`
	// State is the liveness state reported by the master's health
	// registry: alive, suspect or dead.
	State string `json:"state"`
	// TasksPerSec is the observed EWMA task completion rate.
	TasksPerSec float64 `json:"tasksPerSec"`
	// ObservedExecMs is the EWMA per-task execution time observed from
	// results; PredictedExecMs is the WCET model's ET_u = TI + D*theta1
	// for the current mean task size.
	ObservedExecMs  float64 `json:"observedExecMs"`
	PredictedExecMs float64 `json:"predictedExecMs"`
	// MeasuredTransferMs is the EWMA wire transfer time per task measured
	// by the master (task round trip minus worker-reported execution);
	// PredictedTransferMs is the Eq. 10 transfer budget — the TI term,
	// which the paper's model folds input/output transfer into. Comparing
	// the two validates the model's transfer assumption per worker.
	MeasuredTransferMs  float64 `json:"measuredTransferMs"`
	PredictedTransferMs float64 `json:"predictedTransferMs"`
	// ClockSkewMs is the master's RTT-based estimate of the worker
	// clock's offset from the master clock (used to align remote spans).
	ClockSkewMs float64 `json:"clockSkewMs"`
	Straggler   bool    `json:"straggler"`
}

// ControlRecorder accumulates the control-loop time series. A nil
// *ControlRecorder is valid and records nothing.
type ControlRecorder struct {
	mu       sync.Mutex
	samples  []ControlSample
	wsamples []WorkerSample
	max      int
	seq      int
	wseq     int
	tick     int
}

// NewControlRecorder creates a recorder keeping at most max samples
// (default 1<<20 when max <= 0); once full, the oldest samples are
// dropped in blocks so long experiments keep their tail.
func NewControlRecorder(max int) *ControlRecorder {
	if max <= 0 {
		max = 1 << 20
	}
	return &ControlRecorder{max: max}
}

// BeginTick starts a new controller step: samples recorded until the next
// BeginTick share a tick number. Nil-safe.
func (r *ControlRecorder) BeginTick() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tick++
	r.mu.Unlock()
}

// Record appends one sample, stamping Seq and the current Tick. Nil-safe.
func (r *ControlRecorder) Record(s ControlSample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Seq = r.seq
	s.Tick = r.tick
	r.seq++
	r.samples = append(makeRoom(r.samples, r.max), s)
}

// RecordWorker appends one per-worker observation, stamping Seq and the
// current Tick. Nil-safe. Worker samples share the tick numbering of
// Record so a tick's job and worker rows line up.
func (r *ControlRecorder) RecordWorker(s WorkerSample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Seq = r.wseq
	s.Tick = r.tick
	r.wseq++
	r.wsamples = append(makeRoom(r.wsamples, r.max), s)
}

// makeRoom returns s with room for one more sample under limit: a full s
// drops its oldest quarter, at least one sample, in one move rather than
// one by one.
func makeRoom[T any](s []T, limit int) []T {
	if len(s) < limit {
		return s
	}
	keep := limit - max(limit/4, 1)
	copy(s, s[len(s)-keep:])
	return s[:keep]
}

// WorkerSamples copies the recorded per-worker series. Safe on nil.
func (r *ControlRecorder) WorkerSamples() []WorkerSample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]WorkerSample(nil), r.wsamples...)
}

// Len reports recorded samples (0 on nil).
func (r *ControlRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Samples copies the recorded series. Safe on nil.
func (r *ControlRecorder) Samples() []ControlSample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]ControlSample(nil), r.samples...)
}

// Artifact is the payload of a -telemetry run file: the final metrics
// snapshot plus the full control-loop time series (job rows and the
// per-worker observed-vs-predicted rows), so one JSON file captures both
// what happened and how the Eq. 9 loop steered it.
type Artifact struct {
	Metrics RegistrySnapshot `json:"metrics"`
	Control []ControlSample  `json:"control"`
	Workers []WorkerSample   `json:"workers"`
}

// WriteArtifactFile writes an Artifact for reg and rec (either may be
// nil) to path.
func WriteArtifactFile(path string, reg *Registry, rec *ControlRecorder) error {
	art := Artifact{Metrics: reg.Snapshot(), Control: rec.Samples(), Workers: rec.WorkerSamples()}
	if art.Control == nil {
		art.Control = []ControlSample{}
	}
	if art.Workers == nil {
		art.Workers = []WorkerSample{}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
