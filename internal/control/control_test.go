package control

import (
	"math"
	"testing"
	"time"
)

func TestPIDProportional(t *testing.T) {
	p := NewPID(PIDConfig{Kp: 2})
	sig, err := p.Update(3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sig != 6 {
		t.Errorf("P-only signal = %v, want 6", sig)
	}
}

func TestPIDIntegralAccumulates(t *testing.T) {
	p := NewPID(PIDConfig{Ki: 1})
	var sig float64
	for i := 0; i < 5; i++ {
		var err error
		sig, err = p.Update(2, time.Second)
		if err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(sig-10) > 1e-9 {
		t.Errorf("I signal after 5x2s error = %v, want 10", sig)
	}
}

func TestPIDIntegralWindupClamped(t *testing.T) {
	p := NewPID(PIDConfig{Ki: 1, IntegralLimit: 5})
	var sig float64
	for i := 0; i < 100; i++ {
		sig, _ = p.Update(10, time.Second)
	}
	if sig > 5+1e-9 {
		t.Errorf("clamped I signal = %v, want <= 5", sig)
	}
}

func TestPIDDerivativeRespondsToChange(t *testing.T) {
	p := NewPID(PIDConfig{Kd: 1})
	if sig, _ := p.Update(1, time.Second); sig != 0 {
		t.Errorf("first-sample derivative = %v, want 0 (unprimed)", sig)
	}
	sig, _ := p.Update(4, time.Second)
	if sig != 3 {
		t.Errorf("derivative signal = %v, want 3", sig)
	}
	// Decreasing error yields a negative derivative term.
	sig, _ = p.Update(1, time.Second)
	if sig != -3 {
		t.Errorf("derivative on decrease = %v, want -3", sig)
	}
}

func TestPIDRejectsBadDt(t *testing.T) {
	p := NewPID(DefaultPIDConfig())
	if _, err := p.Update(1, 0); err == nil {
		t.Error("dt=0 accepted")
	}
	if _, err := p.Update(1, -time.Second); err == nil {
		t.Error("negative dt accepted")
	}
}

func TestPIDClosedLoopConverges(t *testing.T) {
	// Toy plant: completion speed proportional to allocated resource;
	// the PID steers resource so the job finishes near its deadline.
	pid := NewPID(DefaultPIDConfig())
	resource := 1.0
	remaining := 100.0
	deadline := 20.0
	elapsed := 0.0
	for step := 0; step < 200 && remaining > 0; step++ {
		elapsed++
		remaining -= resource
		expected := elapsed + remaining/math.Max(resource, 1e-9)
		sig, err := pid.Update(expected-deadline, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		resource = math.Max(0.1, resource+0.05*sig)
	}
	if remaining > 0 {
		t.Fatalf("job never finished; resource=%v", resource)
	}
	if elapsed > deadline*1.5 {
		t.Errorf("closed loop finished at %v, deadline %v — controller ineffective", elapsed, deadline)
	}
}

func TestWCETModel(t *testing.T) {
	m := WCETModel{InitTime: time.Second, Theta1: time.Millisecond, Theta2: 2 * time.Millisecond}
	if got := m.TaskTime(500); got != time.Second+500*time.Millisecond {
		t.Errorf("TaskTime = %v", got)
	}
	simple, err := m.JobWCETSimplified(1000, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if simple != 2*time.Second {
		t.Errorf("JobWCETSimplified = %v, want 2s", simple)
	}
}

func TestWCETInverseProportionality(t *testing.T) {
	m := WCETModel{Theta2: time.Millisecond}
	base, _ := m.JobWCETSimplified(10000, 1, 0.25)
	moreWorkers, _ := m.JobWCETSimplified(10000, 4, 0.25)
	morePriority, _ := m.JobWCETSimplified(10000, 1, 1.0)
	if moreWorkers != base/4 {
		t.Errorf("4x workers: %v, want %v", moreWorkers, base/4)
	}
	if morePriority != base/4 {
		t.Errorf("4x priority: %v, want %v", morePriority, base/4)
	}
}

func TestWCETErrors(t *testing.T) {
	m := WCETModel{}
	if _, err := m.JobWCETSimplified(1, 0, 1); err == nil {
		t.Error("simplified 0 workers accepted")
	}
	if _, err := m.JobWCETSimplified(1, 1, -1); err == nil {
		t.Error("simplified negative priority accepted")
	}
}

func TestTunerValidation(t *testing.T) {
	cfg := DefaultTunerConfig()
	if _, err := NewTuner(cfg, 0); err == nil {
		t.Error("0 initial workers accepted")
	}
	bad := cfg
	bad.MinWorkers = 0
	if _, err := NewTuner(bad, 1); err == nil {
		t.Error("MinWorkers 0 accepted")
	}
	bad = cfg
	bad.MaxWorkers = 1
	bad.MinWorkers = 2
	if _, err := NewTuner(bad, 2); err == nil {
		t.Error("Max < Min accepted")
	}
	bad = cfg
	bad.Theta3 = 0
	if _, err := NewTuner(bad, 4); err == nil {
		t.Error("theta3=0 accepted")
	}
}

func TestTunerShiftsPriorityTowardLateJobs(t *testing.T) {
	tn, err := NewTuner(DefaultTunerConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	statuses := []JobStatus{
		{JobID: "late", Deadline: 10 * time.Second, ExpectedFinish: 30 * time.Second, Elapsed: 5 * time.Second},
		{JobID: "early", Deadline: 30 * time.Second, ExpectedFinish: 10 * time.Second, Elapsed: 5 * time.Second},
	}
	var dec Decision
	for i := 0; i < 5; i++ {
		dec, err = tn.Step(statuses, time.Second)
		if err != nil {
			t.Fatal(err)
		}
	}
	if dec.Priorities["late"] <= dec.Priorities["early"] {
		t.Errorf("late job priority %v should exceed early job %v",
			dec.Priorities["late"], dec.Priorities["early"])
	}
	sum := dec.Priorities["late"] + dec.Priorities["early"]
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("priorities sum to %v, want 1", sum)
	}
	if dec.Signals["late"] <= 0 || dec.Signals["early"] >= 0 {
		t.Errorf("signals wrong sign: %+v", dec.Signals)
	}
}

func TestTunerGrowsAndShrinksPool(t *testing.T) {
	cfg := DefaultTunerConfig()
	cfg.MaxWorkers = 64
	tn, err := NewTuner(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	// All jobs badly late: pool must grow.
	late := []JobStatus{
		{JobID: "a", Deadline: 10 * time.Second, ExpectedFinish: 200 * time.Second},
		{JobID: "b", Deadline: 10 * time.Second, ExpectedFinish: 200 * time.Second},
	}
	var dec Decision
	for i := 0; i < 10; i++ {
		dec, _ = tn.Step(late, time.Second)
	}
	if dec.Workers <= 8 {
		t.Errorf("pool did not grow under lateness: %d", dec.Workers)
	}
	grown := dec.Workers
	// All jobs far ahead of schedule: pool should shrink back.
	early := []JobStatus{
		{JobID: "a", Deadline: 300 * time.Second, ExpectedFinish: 5 * time.Second},
		{JobID: "b", Deadline: 300 * time.Second, ExpectedFinish: 5 * time.Second},
	}
	for i := 0; i < 30; i++ {
		dec, _ = tn.Step(early, time.Second)
	}
	if dec.Workers >= grown {
		t.Errorf("pool did not shrink when early: %d (was %d)", dec.Workers, grown)
	}
	if dec.Workers < cfg.MinWorkers {
		t.Errorf("pool below MinWorkers: %d", dec.Workers)
	}
}

func TestTunerDropsFinishedJobs(t *testing.T) {
	tn, _ := NewTuner(DefaultTunerConfig(), 4)
	statuses := []JobStatus{
		{JobID: "a", Deadline: time.Second, ExpectedFinish: 2 * time.Second},
		{JobID: "b", Deadline: time.Second, ExpectedFinish: 2 * time.Second},
	}
	tn.Step(statuses, time.Second)
	dec, err := tn.Step(statuses[1:], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dec.Priorities["a"]; ok {
		t.Error("finished job still has a priority")
	}
	if math.Abs(dec.Priorities["b"]-1) > 1e-9 {
		t.Errorf("sole live job priority = %v, want 1", dec.Priorities["b"])
	}
}

func TestTunerAllDone(t *testing.T) {
	tn, _ := NewTuner(DefaultTunerConfig(), 4)
	if _, err := tn.Step([]JobStatus{{JobID: "a", Deadline: time.Second, ExpectedFinish: 2 * time.Second}}, time.Second); err != nil {
		t.Fatal(err)
	}
	dec, err := tn.Step(nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Priorities) != 0 || dec.Workers != tn.workers {
		t.Errorf("all-done decision = %+v", dec)
	}
	if _, ok := tn.PIDState("a"); ok {
		t.Error("a job left out of an empty sample kept its controller")
	}
}

func TestTunerRejectsBadDt(t *testing.T) {
	tn, _ := NewTuner(DefaultTunerConfig(), 4)
	if _, err := tn.Step(nil, 0); err == nil {
		t.Error("dt=0 accepted")
	}
}

func TestPIDSnapshotTracksTerms(t *testing.T) {
	p := NewPID(PIDConfig{Kp: 2, Ki: 1, Kd: 0.5})
	if s := p.Snapshot(); s.Primed || s.Updates != 0 || s.Integral != 0 {
		t.Fatalf("fresh snapshot = %+v, want zero state", s)
	}
	if _, err := p.Update(3, time.Second); err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if !s.Primed || s.Updates != 1 {
		t.Fatalf("snapshot after one update = %+v", s)
	}
	if s.Err != 3 || s.P != 6 || s.I != 3 || s.D != 0 {
		t.Errorf("terms = err %v P %v I %v D %v, want 3/6/3/0", s.Err, s.P, s.I, s.D)
	}
	if s.Signal != s.P+s.I+s.D {
		t.Errorf("signal %v != P+I+D %v", s.Signal, s.P+s.I+s.D)
	}
	// Second sample: derivative kicks in, integral accumulates.
	if _, err := p.Update(5, time.Second); err != nil {
		t.Fatal(err)
	}
	s = p.Snapshot()
	if s.Updates != 2 || s.PrevErr != 5 {
		t.Fatalf("snapshot after two updates = %+v", s)
	}
	if s.Integral != 8 {
		t.Errorf("integral = %v, want 8", s.Integral)
	}
	if s.D != 0.5*(5-3) {
		t.Errorf("D term = %v, want 1", s.D)
	}
}

func TestPIDSnapshotWindupClamp(t *testing.T) {
	p := NewPID(PIDConfig{Ki: 1, IntegralLimit: 4})
	for i := 0; i < 10; i++ {
		if _, err := p.Update(100, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Snapshot()
	if s.Integral != 4 {
		t.Errorf("clamped integral = %v, want 4", s.Integral)
	}
	if s.I != 4 {
		t.Errorf("I term = %v, want clamped 4", s.I)
	}
	// Clamp must hold symmetrically on the negative side.
	for i := 0; i < 20; i++ {
		if _, err := p.Update(-100, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if s = p.Snapshot(); s.Integral != -4 {
		t.Errorf("negative clamped integral = %v, want -4", s.Integral)
	}
}

func TestTunerPIDState(t *testing.T) {
	tn, err := NewTuner(DefaultTunerConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tn.PIDState("job"); ok {
		t.Fatal("PIDState before any step should report ok=false")
	}
	_, err = tn.Step([]JobStatus{{JobID: "job", Deadline: time.Second, ExpectedFinish: 2 * time.Second}}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := tn.PIDState("job")
	if !ok || s.Updates != 1 || s.Err <= 0 {
		t.Fatalf("PIDState after step = %+v ok=%v, want late-job error", s, ok)
	}
	// A job the next sample leaves out has finished: it loses its
	// controller.
	if _, err := tn.Step(nil, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := tn.PIDState("job"); ok {
		t.Fatal("PIDState after the job left the sample should report ok=false")
	}
}

// TestTunerForgetsJobsLeftOutOfSample: the DTM samples only live jobs, so a
// finished job is one that stops appearing, and its controller must go.
func TestTunerForgetsJobsLeftOutOfSample(t *testing.T) {
	tn, err := NewTuner(DefaultTunerConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	a := JobStatus{JobID: "a", Deadline: time.Second, ExpectedFinish: 2 * time.Second}
	b := JobStatus{JobID: "b", Deadline: time.Second, ExpectedFinish: 2 * time.Second}
	if _, err := tn.Step([]JobStatus{a, b}, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Step([]JobStatus{b}, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := tn.PIDState("a"); ok {
		t.Error("job a, absent from the second sample, kept its controller")
	}
	if s, ok := tn.PIDState("b"); !ok || s.Updates != 2 {
		t.Errorf("job b: PIDState = %+v ok=%v, want two updates", s, ok)
	}
}

// TestTunerReturningJobStartsFreshController: a job that leaves the sample
// and comes back gets a new controller, not the one it left with.
func TestTunerReturningJobStartsFreshController(t *testing.T) {
	tn, err := NewTuner(DefaultTunerConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	late := JobStatus{JobID: "a", Deadline: time.Second, ExpectedFinish: 3 * time.Second}
	for i := 0; i < 5; i++ {
		if _, err := tn.Step([]JobStatus{late}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tn.Step(nil, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Step([]JobStatus{late}, time.Second); err != nil {
		t.Fatal(err)
	}
	got, ok := tn.PIDState("a")
	if !ok {
		t.Fatal("returning job has no controller")
	}
	fresh, _ := NewTuner(DefaultTunerConfig(), 4)
	if _, err := fresh.Step([]JobStatus{late}, time.Second); err != nil {
		t.Fatal(err)
	}
	want, _ := fresh.PIDState("a")
	if got != want {
		t.Errorf("returning job PIDState = %+v, want a fresh controller's %+v", got, want)
	}
}

// TestTunerStepBoundedByMaxStep: however late the jobs, one sample moves
// the pool by at most maxStep workers.
func TestTunerStepBoundedByMaxStep(t *testing.T) {
	cfg := DefaultTunerConfig()
	cfg.MaxWorkers = 1000
	tn, err := NewTuner(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	late := []JobStatus{{JobID: "a", Deadline: time.Second, ExpectedFinish: time.Hour}}
	dec, err := tn.Step(late, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Workers != 100+maxStep {
		t.Errorf("late step: workers = %d, want %d", dec.Workers, 100+maxStep)
	}
	early := []JobStatus{{JobID: "a", Deadline: time.Hour, ExpectedFinish: time.Second}}
	for i := 0; i < 3; i++ {
		prev := dec.Workers
		if dec, err = tn.Step(early, time.Second); err != nil {
			t.Fatal(err)
		}
		if d := prev - dec.Workers; d < 0 || d > maxStep {
			t.Errorf("early step %d: pool moved %d -> %d, want a shrink of at most %d", i, prev, dec.Workers, maxStep)
		}
	}
}
