package dtm

import (
	"sort"
	"time"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

// JobProgress is a live snapshot of one in-flight TD job.
type JobProgress struct {
	Claim socialsensing.ClaimID
	// Tasks and TasksDone count the job's work units: its scatter tasks
	// and the decode task that follows them.
	Tasks, TasksDone int
	// Remaining is the data (reports) not yet processed.
	Remaining float64
	// Elapsed is time since submission.
	Elapsed time.Duration
	// Deadline is the job's soft deadline (zero = none).
	Deadline time.Duration
}

// Progress snapshots every in-flight job, sorted by claim — the signal
// the paper's monitor derives from output-file timestamps, exposed
// directly.
func (m *Manager) Progress() []JobProgress {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobProgress, 0, len(m.jobs))
	for _, js := range m.jobs {
		out = append(out, JobProgress{
			Claim:     js.claim,
			Tasks:     js.tasks + 1,
			TasksDone: js.done,
			Remaining: js.remaining,
			Elapsed:   time.Since(js.submitted),
			Deadline:  js.deadline,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Claim < out[j].Claim })
	return out
}
