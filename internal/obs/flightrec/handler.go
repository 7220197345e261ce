package flightrec

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"
)

// ringStatus is one ring's row in the /debug/flightrec status JSON.
type ringStatus struct {
	Name     string `json:"name"`
	Capacity int    `json:"capacity"`
	Total    uint64 `json:"total"`
}

type status struct {
	Frozen   bool         `json:"frozen"`
	Window   string       `json:"window"`
	Cooldown string       `json:"cooldown"`
	Dir      string       `json:"dir,omitempty"`
	DumpOn   []string     `json:"dumpOn,omitempty"`
	Rings    []ringStatus `json:"rings"`
	Dumps    []DumpInfo   `json:"dumps"`
}

// Handler serves the flight recorder's debug surface:
//
//	GET  /debug/flightrec        recorder status: rings, dump history
//	GET  /debug/flightrec/events JSON events from the last window
//	GET  /debug/flightrec/trace  live merged deep-dive Chrome trace
//	POST /debug/flightrec/trip   fire the "manual" trigger
//
// Mount it at both "/debug/flightrec" and "/debug/flightrec/".
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r == nil {
			http.Error(w, "flight recorder not enabled", http.StatusNotFound)
			return
		}
		switch strings.TrimSuffix(strings.TrimPrefix(req.URL.Path, "/debug/flightrec"), "/") {
		case "":
			r.mu.Lock()
			st := status{
				Frozen:   r.frozen.Load(),
				Window:   r.window.String(),
				Cooldown: r.cooldown.String(),
				Dir:      r.dir,
				Rings:    make([]ringStatus, 0, len(r.rings)),
				Dumps:    append([]DumpInfo(nil), r.dumps...),
			}
			for trig := range r.armed {
				st.DumpOn = append(st.DumpOn, trig)
			}
			for _, g := range r.rings {
				st.Rings = append(st.Rings, ringStatus{Name: g.name, Capacity: len(g.recs), Total: g.cur.Load()})
			}
			r.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(st)
		case "/events":
			w.Header().Set("Content-Type", "application/json")
			events := r.Events(r.window)
			if events == nil {
				events = []Event{}
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(events)
		case "/trace":
			w.Header().Set("Content-Type", "application/json")
			_ = r.WriteDeepDive(w, r.window)
		case "/trip":
			if req.Method != http.MethodPost {
				http.Error(w, "POST required", http.StatusMethodNotAllowed)
				return
			}
			if !r.Trip(TrigManual, "http "+req.RemoteAddr) {
				http.Error(w, "trip refused (cooldown, in-flight dump, or trigger disarmed)",
					http.StatusTooManyRequests)
				return
			}
			// Wait so the response can report the dump: long enough to
			// outlast a master's gather step (2 s for worker replies).
			done := make(chan struct{})
			go func() { r.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
			}
			dumps := r.Dumps()
			w.Header().Set("Content-Type", "application/json")
			resp := map[string]any{"tripped": true}
			if len(dumps) > 0 {
				resp["dump"] = dumps[len(dumps)-1]
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(resp)
		default:
			http.NotFound(w, req)
		}
	})
}
