package workqueue

import (
	"errors"
	"fmt"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
)

// ErrAdmissionRejected is the sentinel wrapped into every admission
// rejection, so callers can errors.Is a refused submission apart from
// infrastructure failures.
var ErrAdmissionRejected = errors.New("workqueue: admission rejected")

// AdmissionConfig parameterizes the admission gate. The gate implements
// the feedback half of the paper's capacity planning: Eq. 11/12 predict a
// job's WCET from data volume and worker count — here the same
// prediction, fed by a measured per-worker service rate and live queue
// depth, refuses (or sheds) work that could not meet its deadline anyway
// instead of letting it poison the deadlines of jobs already queued.
type AdmissionConfig struct {
	// TaskRatePerWorker is an operator-supplied service rate of one
	// worker (tasks/second): 1000/(ewmaExecMs+ewmaTransferMs) as /cluster
	// reports it for a busy pool. Zero uses the same figure measured live
	// (Master.observedRatePerWorker); a configured rate wins over it.
	TaskRatePerWorker float64
	// Deadline is the default completion budget applied to jobs admitted
	// without one. Zero means jobs without a deadline are always admitted.
	Deadline time.Duration
	// SafetyFactor inflates the predicted completion time before the
	// deadline comparison (the rate is a mean; real queues burst).
	// Values <= 0 default to 1.
	SafetyFactor float64
	// Shed switches the gate from reject to degrade: an over-deadline
	// job is still admitted but flagged Shed, and the submitter parks it
	// in a near-zero-priority lane where it only consumes idle capacity.
	Shed bool
}

// AdmissionDecision is the gate's verdict for one job, carrying the
// inputs of the prediction so a rejection log line (or a test) can show
// its work.
type AdmissionDecision struct {
	// Admit is false when the job should be refused outright.
	Admit bool
	// Shed is true when the job is admitted into the degraded lane
	// instead (AdmissionConfig.Shed).
	Shed bool
	// PredictedMs is the safety-adjusted completion estimate for the
	// job's last task given the current backlog; negative means the
	// prediction was impossible (no workers, or no rate measured yet).
	PredictedMs float64
	// DeadlineMs is the budget the prediction was compared against.
	DeadlineMs int64
	// QueueDepth counts tasks ahead of the job: queued, in flight, and
	// waiting out a requeue backoff.
	QueueDepth int
	// Workers is the pool size used in the prediction.
	Workers int
	// RatePerWorker is the service rate used (configured or observed).
	RatePerWorker float64
	// Err is the errtraced rejection (wrapping ErrAdmissionRejected);
	// nil when the job was admitted, including shed admissions.
	Err error
}

// admissionGate evaluates jobs against the service rate. It is
// stateless beyond its config; live inputs (queue depth, workers,
// observed rate) come from the master at decision time.
type admissionGate struct {
	cfg AdmissionConfig

	cAccepted *obs.Counter
	cRejected *obs.Counter
	cShed     *obs.Counter
	hPredMiss *obs.Histogram
	logger    *obs.Logger

	// rejectBurst trips a flight-recorder deep dive when rejections
	// cluster — a rejection spike means the capacity model and the live
	// pool disagree, exactly when sub-span timing history is wanted.
	rejectBurst *flightrec.Burst
}

func newAdmissionGate(cfg AdmissionConfig, reg *obs.Registry, logger *obs.Logger) *admissionGate {
	if cfg.SafetyFactor <= 0 {
		cfg.SafetyFactor = 1
	}
	g := &admissionGate{cfg: cfg, logger: logger,
		rejectBurst: flightrec.NewBurst(flightrec.TrigAdmission, 0, 0)}
	if reg != nil {
		g.cAccepted = reg.Counter("admission_accepted_total")
		g.cRejected = reg.Counter("admission_rejected_total")
		g.cShed = reg.Counter("admission_shed_total")
		g.hPredMiss = reg.Histogram("admission_predicted_miss_ms", nil)
	}
	return g
}

// decide predicts when the job's last task would complete — backlog plus
// the job's own tasks, drained by workers×rate — and compares it to the
// deadline. The gate mirrors Eq. 11's WCET ≈ D·θ2/W shape with the
// measured 1/rate standing in for θ2. With workers attached but nothing
// completed yet there is no rate to predict from, and the job is
// admitted: refusing it would keep the rate at zero for good.
func (g *admissionGate) decide(jobID, traceID string, jobTasks int, deadline time.Duration, queueDepth, workers int, observedRate float64) AdmissionDecision {
	if deadline <= 0 {
		deadline = g.cfg.Deadline
	}
	rate := g.cfg.TaskRatePerWorker
	rateSource := "configured"
	if rate <= 0 {
		rate = observedRate
		rateSource = "observed"
	}
	d := AdmissionDecision{
		Admit:         true,
		DeadlineMs:    deadline.Milliseconds(),
		QueueDepth:    queueDepth,
		Workers:       workers,
		RatePerWorker: rate,
		PredictedMs:   -1,
	}
	if capacity := rate * float64(workers); capacity > 0 {
		d.PredictedMs = float64(queueDepth+jobTasks) / capacity * 1000 * g.cfg.SafetyFactor
	}
	if deadline <= 0 {
		// No budget to defend: admit, even blind.
		g.cAccepted.Inc()
		return d
	}
	over := workers <= 0 || d.PredictedMs > float64(d.DeadlineMs)
	if !over {
		g.cAccepted.Inc()
		return d
	}
	g.hPredMiss.Observe(d.PredictedMs - float64(d.DeadlineMs))
	fields := []obs.Field{obs.JobID(jobID), obs.TraceID(traceID),
		obs.F("predicted_ms", int64(d.PredictedMs)), obs.F("deadline_ms", d.DeadlineMs),
		obs.F("queue_depth", queueDepth), obs.F("workers", workers),
		obs.F("rate_per_worker", fmt.Sprintf("%.2f", rate)), obs.F("rate_source", rateSource)}
	if g.cfg.Shed {
		d.Shed = true
		g.cShed.Inc()
		g.logger.Warn("job shed to degraded lane by admission control", fields...)
		return d
	}
	d.Admit = false
	d.Err = obs.Wrap(fmt.Errorf("%w: job %s predicted %.0fms > deadline %dms (queue %d, workers %d, %s rate %.2f/s)",
		ErrAdmissionRejected, jobID, d.PredictedMs, d.DeadlineMs, queueDepth, workers, rateSource, rate))
	g.cRejected.Inc()
	g.rejectBurst.Observe(fmt.Sprintf("job %s predicted %.0fms > %dms", jobID, d.PredictedMs, d.DeadlineMs))
	g.logger.Warn("job rejected by admission control", append(fields, obs.Err(d.Err), obs.ErrTrace(d.Err))...)
	return d
}

// AdmitJob consults the admission gate for a job of jobTasks tasks and
// the given completion deadline, using the live queue depth, pool size
// and (when no rate is configured) the observed mean per-worker
// service rate. Without an AdmissionConfig the gate is open: every
// job is admitted. traceID tags the decision's log line for correlation.
func (m *Master) AdmitJob(jobID, traceID string, jobTasks int, deadline time.Duration) AdmissionDecision {
	if m.admission == nil {
		return AdmissionDecision{Admit: true, PredictedMs: -1}
	}
	// The backlog is every task queued, in flight or backing off.
	m.mu.Lock()
	backlog := len(m.tasks) + m.sched.len()
	m.mu.Unlock()
	return m.admission.decide(jobID, traceID, jobTasks, deadline,
		backlog, m.cluster.count(), m.observedRatePerWorker())
}

// observedRatePerWorker is Eq. 10's 1/ET_u as the registry measures it:
// 1000/(EWMAExecMs+EWMATransferMs), averaged over the alive workers that
// have completed a task; zero until one has. (WorkerHealth.TasksPerSec is
// throughput under the offered load, which an idle pool understates.)
func (m *Master) observedRatePerWorker() float64 {
	n, sum := 0, 0.0
	for _, h := range m.cluster.health() {
		ms := h.EWMAExecMs + h.EWMATransferMs
		if h.State == WorkerDead || h.TasksCompleted+h.TasksFailed == 0 || ms <= 0 {
			continue
		}
		sum += 1000 / ms
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
