package rto

import "sort"

// DefaultLimits returns practical bounds.
func DefaultLimits() Limits {
	return Limits{MinWorkers: 1, MaxWorkers: 64, MaxTasksPerJob: 8}
}

// SolveExhaustive enumerates the full integer space — exponential, only
// usable for small instances — and returns the true optimum. It is the
// reference Solve is checked against.
func SolveExhaustive(jobs []JobSpec, model Model, limits Limits) (Allocation, error) {
	if len(jobs) == 0 {
		return Allocation{}, ErrNoJobs
	}
	ordered := append([]JobSpec(nil), jobs...)
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].ID < ordered[b].ID })
	best := Allocation{Misses: len(jobs) + 1}
	tasks := make([]int, len(ordered))
	var rec func(i int)
	rec = func(i int) {
		if i == len(ordered) {
			for wk := limits.MinWorkers; wk <= limits.MaxWorkers; wk++ {
				cand := evaluate(ordered, model, wk, tasks)
				if better(cand, best) {
					best = cand
				}
			}
			return
		}
		for t := 1; t <= limits.MaxTasksPerJob; t++ {
			tasks[i] = t
			rec(i + 1)
		}
	}
	rec(0)
	return best, nil
}
