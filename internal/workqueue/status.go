package workqueue

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"
)

// Status is the master's monitoring snapshot — the observability hook the
// paper's feedback loop needs (it samples job progress at 1 Hz; §IV-C
// watches output timestamps, this exposes the same signals directly).
type Status struct {
	Workers     int         `json:"workers"`
	QueuedTasks int         `json:"queuedTasks"`
	Jobs        []JobStatus `json:"jobs"`
	// Quarantined counts poisoned tasks parked after exhausting their
	// retry budget (inspect them via Master.Quarantined).
	Quarantined int `json:"quarantined"`
	// WorkersDetail is the per-worker health registry: liveness state,
	// last-seen time, throughput estimates and straggler flags.
	WorkersDetail []WorkerHealth `json:"workersDetail"`
}

// JobStatus is the wire form of one job's progress.
type JobStatus struct {
	JobID       string    `json:"jobId"`
	Submitted   int       `json:"submitted"`
	Completed   int       `json:"completed"`
	Failed      int       `json:"failed"`
	Done        bool      `json:"done"`
	FirstSubmit time.Time `json:"firstSubmit"`
}

// Status snapshots the master.
func (m *Master) Status() Status {
	stats := m.AllStats()
	sort.Slice(stats, func(i, j int) bool { return stats[i].JobID < stats[j].JobID })
	st := Status{
		Workers:       m.WorkerCount(),
		QueuedTasks:   m.QueueLen(),
		Jobs:          make([]JobStatus, 0, len(stats)),
		Quarantined:   len(m.Quarantined()),
		WorkersDetail: m.ClusterHealth(),
	}
	for _, js := range stats {
		st.Jobs = append(st.Jobs, JobStatus{
			JobID:       js.JobID,
			Submitted:   js.Submitted,
			Completed:   js.Completed,
			Failed:      js.Failed,
			Done:        js.Done(),
			FirstSubmit: js.FirstSubmit,
		})
	}
	return st
}

// StatusHandler serves the master's Status as JSON — mount it on any mux
// (GET only).
func (m *Master) StatusHandler() http.Handler { return jsonHandler(func() any { return m.Status() }) }

// jsonHandler serves the snapshot as indented JSON (GET only).
func jsonHandler(snapshot func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
