// Package control implements the deadline-driven feedback control system of
// the paper's §IV-C: a Proportional-Integral-Derivative controller per TD
// job (Eq. 9) whose signals tune a Local Control Knob (the job's priority)
// and a Global Control Knob (the worker-pool size), using the WCET model of
// Eq. 10-12.
package control

import (
	"fmt"
	"math"
	"time"
)

// PIDConfig holds controller gains. The paper tunes them by sweeping each
// coefficient over [0, 3] in steps of 0.1 and picking the combination that
// meets the most deadlines, arriving at Kp=1.2, Ki=0.3, Kd=0.2.
type PIDConfig struct {
	Kp, Ki, Kd float64
	// IntegralLimit clamps |integral| to prevent windup. Zero disables
	// clamping.
	IntegralLimit float64
}

// DefaultPIDConfig returns the paper's tuned coefficients.
func DefaultPIDConfig() PIDConfig {
	return PIDConfig{Kp: 1.2, Ki: 0.3, Kd: 0.2, IntegralLimit: 50}
}

// PID is a discrete PID controller. The error convention follows the
// paper: e(k) = expected finish time - deadline, so a positive control
// signal means the job is late and needs more resources.
type PID struct {
	cfg      PIDConfig
	integral float64
	prevErr  float64
	primed   bool
	last     PIDState
}

// PIDState is an introspection snapshot of a controller, consumed by the
// control-loop recorder (internal/obs) to log every tick of Eq. 9.
type PIDState struct {
	// Integral and PrevErr are the accumulated controller state;
	// Integral reflects any windup clamping already applied.
	Integral float64
	PrevErr  float64
	// Primed is true once the controller has seen a sample (the first
	// derivative term is suppressed until then).
	Primed bool
	// Updates counts Update calls since creation or Reset.
	Updates int
	// Err is the input of the most recent Update; P, I and D are its
	// gain-weighted term contributions and Signal their sum.
	Err, P, I, D, Signal float64
}

// NewPID builds a controller.
func NewPID(cfg PIDConfig) *PID {
	return &PID{cfg: cfg}
}

// Update feeds the controller one error sample observed over dt and
// returns the control signal of Eq. 9. dt must be positive.
func (p *PID) Update(err float64, dt time.Duration) (float64, error) {
	if dt <= 0 {
		return 0, fmt.Errorf("control: dt must be positive, got %v", dt)
	}
	dts := dt.Seconds()
	p.integral += err * dts
	if lim := p.cfg.IntegralLimit; lim > 0 {
		p.integral = math.Max(-lim, math.Min(lim, p.integral))
	}
	derivative := 0.0
	if p.primed {
		derivative = (err - p.prevErr) / dts
	}
	p.prevErr = err
	p.primed = true
	pTerm := p.cfg.Kp * err
	iTerm := p.cfg.Ki * p.integral
	dTerm := p.cfg.Kd * derivative
	sig := pTerm + iTerm + dTerm
	p.last = PIDState{
		Integral: p.integral,
		PrevErr:  p.prevErr,
		Primed:   true,
		Updates:  p.last.Updates + 1,
		Err:      err,
		P:        pTerm,
		I:        iTerm,
		D:        dTerm,
		Signal:   sig,
	}
	return sig, nil
}

// Snapshot returns the controller's current state without disturbing it.
func (p *PID) Snapshot() PIDState {
	s := p.last
	// Reflect live accumulator state even before the first Update.
	s.Integral = p.integral
	s.PrevErr = p.prevErr
	s.Primed = p.primed
	return s
}

// WCETModel is the worst-case execution time model of Eq. 10-12.
type WCETModel struct {
	// InitTime is TI of Eq. 10.
	InitTime time.Duration
	// Theta1 is the per-data-unit execution cost of Eq. 10.
	Theta1 time.Duration
	// Theta2 is the distributed-execution constant of Eq. 11-12.
	Theta2 time.Duration
}

// TaskTime returns ET_u = TI + D * theta1 (Eq. 10) for one task over
// dataSize units.
func (m WCETModel) TaskTime(dataSize float64) time.Duration {
	return m.InitTime + time.Duration(dataSize*float64(m.Theta1))
}

// JobWCETSimplified is Eq. 12, valid when the per-task init overhead is
// kept small: WCET ≈ D*theta2 / (WK * P_u).
func (m WCETModel) JobWCETSimplified(dataSize float64, workers int, priority float64) (time.Duration, error) {
	if workers < 1 {
		return 0, fmt.Errorf("control: pool needs >= 1 worker, got %d", workers)
	}
	if priority <= 0 {
		return 0, fmt.Errorf("control: priority must be positive, got %v", priority)
	}
	return time.Duration(dataSize * float64(m.Theta2) / (float64(workers) * priority)), nil
}
