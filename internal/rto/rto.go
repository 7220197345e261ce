// Package rto implements the real-time-optimization extension the paper
// sketches as future work (§VII): instead of heuristically nudging the
// control knobs with a PID loop, formulate the allocation as an integer
// program — "finding the optimal integer values for the number of workers
// and the number of tasks for each job" — and solve it exactly.
//
// The model is Eq. 11 of the paper: with a pool of WK workers and job u
// split into T_u tasks (priority P_u = T_u / ΣT),
//
//	WCET_u = TI·T_u + D_u·θ2·ΣT / (WK·T_u)
//
// The solver minimizes, lexicographically: (1) the number of jobs missing
// their deadline, (2) the pool size WK (resources are scavenged but not
// free), (3) the worst normalized lateness. For each candidate WK the
// inner task-split problem is solved by branch and bound over the task
// vector, with a convex relaxation providing bounds: for fixed ΣT the
// per-job objective is convex in T_u with real minimizer
// T_u* = sqrt(D_u·θ2·ΣT/(WK·TI)).
package rto

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// JobSpec describes one TD job to allocate.
type JobSpec struct {
	ID string
	// DataSize is D_u, the job's data volume in work units (reports).
	DataSize float64
	// Deadline is the job's soft deadline. Must be positive.
	Deadline time.Duration
}

// Model carries the WCET coefficients of Eq. 10-11.
type Model struct {
	// InitTime is TI, the per-task start-up cost.
	InitTime time.Duration
	// Theta2 is the per-work-unit distributed execution cost.
	Theta2 time.Duration
}

// Limits bounds the integer decision variables.
type Limits struct {
	MinWorkers, MaxWorkers int
	MaxTasksPerJob         int
}

// DefaultLimits returns practical bounds.
func DefaultLimits() Limits {
	return Limits{MinWorkers: 1, MaxWorkers: 64, MaxTasksPerJob: 8}
}

// Allocation is a solved assignment.
type Allocation struct {
	Workers int
	// Tasks maps job ID to its task count T_u.
	Tasks map[string]int
	// WCET is each job's modeled worst-case completion time under the
	// allocation.
	WCET map[string]time.Duration
	// Misses is the number of jobs with WCET > deadline.
	Misses int
	// MaxLateness is the worst WCET_u / deadline_u ratio.
	MaxLateness float64
}

// Errors.
var (
	ErrNoJobs    = errors.New("rto: no jobs to allocate")
	ErrBadLimits = errors.New("rto: invalid limits")
)

// Solve computes the optimal allocation.
func Solve(jobs []JobSpec, model Model, limits Limits) (Allocation, error) {
	if len(jobs) == 0 {
		return Allocation{}, ErrNoJobs
	}
	if limits.MinWorkers < 1 || limits.MaxWorkers < limits.MinWorkers || limits.MaxTasksPerJob < 1 {
		return Allocation{}, fmt.Errorf("%w: %+v", ErrBadLimits, limits)
	}
	if model.InitTime < 0 || model.Theta2 <= 0 {
		return Allocation{}, fmt.Errorf("rto: invalid model %+v", model)
	}
	for i, j := range jobs {
		if j.ID == "" {
			return Allocation{}, fmt.Errorf("rto: job %d has no id", i)
		}
		if j.DataSize < 0 {
			return Allocation{}, fmt.Errorf("rto: job %q has negative data size", j.ID)
		}
		if j.Deadline <= 0 {
			return Allocation{}, fmt.Errorf("rto: job %q needs a positive deadline", j.ID)
		}
	}
	// Deterministic job order.
	ordered := append([]JobSpec(nil), jobs...)
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].ID < ordered[b].ID })

	best := Allocation{Misses: len(jobs) + 1}
	for wk := limits.MinWorkers; wk <= limits.MaxWorkers; wk++ {
		cand := solveTasksForWorkers(ordered, model, limits, wk)
		if better(cand, best) {
			best = cand
		}
		// Lexicographic prune: workers are scanned ascending, so the
		// first zero-miss allocation dominates every larger pool
		// (objective 2 prefers fewer workers before lateness is even
		// consulted).
		if best.Misses == 0 {
			break
		}
	}
	return best, nil
}

// better implements the lexicographic objective.
func better(a, b Allocation) bool {
	if a.Misses != b.Misses {
		return a.Misses < b.Misses
	}
	if a.Workers != b.Workers {
		return a.Workers < b.Workers
	}
	return a.MaxLateness < b.MaxLateness-1e-12
}

// solveTasksForWorkers finds a task vector minimizing the lexicographic
// objective for a fixed pool size: coordinate descent directly on the
// (misses, lateness) objective, run from three starts — all-ones, all-max,
// and the convex relaxation's rounding (T_u* = sqrt(D_u·θ2·ΣT/(WK·TI))) —
// keeping the best local optimum.
func solveTasksForWorkers(jobs []JobSpec, model Model, limits Limits, wk int) Allocation {
	n := len(jobs)
	starts := [][]int{
		uniformTasks(n, 1),
		uniformTasks(n, limits.MaxTasksPerJob),
		convexStart(jobs, model, limits, wk),
	}
	best := Allocation{Misses: n + 1, MaxLateness: math.Inf(1)}
	for _, tasks := range starts {
		cand := polish(jobs, model, limits, wk, tasks)
		if betterTasks(cand, best) {
			best = cand
		}
	}
	return best
}

// betterTasks compares two candidate allocations for the same worker
// count: fewer misses, then lower lateness.
func betterTasks(a, b Allocation) bool {
	if a.Misses != b.Misses {
		return a.Misses < b.Misses
	}
	return a.MaxLateness < b.MaxLateness-1e-12
}

// polish runs coordinate descent on the full objective from a start. The
// inner loop scores candidates without allocating; the winning task
// vector is materialized once at the end.
func polish(jobs []JobSpec, model Model, limits Limits, wk int, start []int) Allocation {
	tasks := append([]int(nil), start...)
	bestMisses, bestLate := score(jobs, model, wk, tasks)
	for sweep := 0; sweep < 16; sweep++ {
		improved := false
		for i := range tasks {
			orig := tasks[i]
			for t := 1; t <= limits.MaxTasksPerJob; t++ {
				if t == orig {
					continue
				}
				tasks[i] = t
				misses, late := score(jobs, model, wk, tasks)
				if misses < bestMisses || (misses == bestMisses && late < bestLate-1e-12) {
					bestMisses, bestLate = misses, late
					orig = t
					improved = true
				}
			}
			tasks[i] = orig
		}
		if !improved {
			break
		}
	}
	return evaluate(jobs, model, wk, tasks)
}

// score computes (misses, max lateness) for an assignment without
// allocating.
func score(jobs []JobSpec, model Model, wk int, tasks []int) (int, float64) {
	sum := 0
	for _, t := range tasks {
		sum += t
	}
	misses := 0
	maxLate := 0.0
	for i, j := range jobs {
		w := wcet(j, model, wk, tasks[i], sum)
		if w > j.Deadline {
			misses++
		}
		if late := float64(w) / float64(j.Deadline); late > maxLate {
			maxLate = late
		}
	}
	return misses, maxLate
}

func uniformTasks(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// convexStart rounds the real-relaxation minimizer per job, using the
// job count as the initial ΣT proxy.
func convexStart(jobs []JobSpec, model Model, limits Limits, wk int) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		if model.InitTime == 0 {
			out[i] = limits.MaxTasksPerJob
			continue
		}
		tStar := math.Sqrt(j.DataSize * float64(model.Theta2) * float64(len(jobs)) /
			(float64(wk) * float64(model.InitTime)))
		t := int(math.Round(tStar))
		if t < 1 {
			t = 1
		}
		if t > limits.MaxTasksPerJob {
			t = limits.MaxTasksPerJob
		}
		out[i] = t
	}
	return out
}

// wcet evaluates Eq. 11 for one job.
func wcet(j JobSpec, model Model, wk, t, sumT int) time.Duration {
	if t < 1 {
		t = 1
	}
	if sumT < t {
		sumT = t
	}
	init := time.Duration(t) * model.InitTime
	exec := time.Duration(j.DataSize * float64(model.Theta2) * float64(sumT) / (float64(wk) * float64(t)))
	return init + exec
}

// evaluate scores a complete assignment.
func evaluate(jobs []JobSpec, model Model, wk int, tasks []int) Allocation {
	sum := 0
	for _, t := range tasks {
		sum += t
	}
	alloc := Allocation{
		Workers: wk,
		Tasks:   make(map[string]int, len(jobs)),
		WCET:    make(map[string]time.Duration, len(jobs)),
	}
	for i, j := range jobs {
		w := wcet(j, model, wk, tasks[i], sum)
		alloc.Tasks[j.ID] = tasks[i]
		alloc.WCET[j.ID] = w
		lateness := float64(w) / float64(j.Deadline)
		if lateness > alloc.MaxLateness {
			alloc.MaxLateness = lateness
		}
		if w > j.Deadline {
			alloc.Misses++
		}
	}
	return alloc
}
