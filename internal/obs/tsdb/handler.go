package tsdb

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
)

// QueryResult is the /query response payload.
type QueryResult struct {
	Series []Series `json:"series"`
	// Names lists retained series base names; populated when the request
	// names no series (discovery mode).
	Names []string `json:"names,omitempty"`
}

// Handler serves the store over HTTP:
//
//	GET /?series=<base name>      exact series base name ("" lists names)
//	      &label=k=v              repeatable label equality matcher
//	      &since=<dur|RFC3339>    lookback window
//	      &step=<dur>             downsample bucket
//	      &limit=<n>              max points per series (clamped)
//
// Mount it under /query on a debug mux.
func (s *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		q := req.URL.Query()
		out := QueryResult{Series: []Series{}}
		name := q.Get("series")
		if name == "" {
			out.Names = s.SeriesNames()
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(out)
			return
		}
		query := Query{Name: name}
		for _, m := range q["label"] {
			k, v, ok := strings.Cut(m, "=")
			if !ok || k == "" {
				http.Error(w, "bad label matcher: want k=v", http.StatusBadRequest)
				return
			}
			if query.Matchers == nil {
				query.Matchers = make(map[string]string)
			}
			query.Matchers[k] = v
		}
		now := time.Now()
		if sv := q.Get("since"); sv != "" {
			since, ok := obs.ParseSince(sv, now)
			if !ok {
				http.Error(w, "bad since: want a duration (5m) or RFC3339 time", http.StatusBadRequest)
				return
			}
			query.Since = now.Sub(since)
		}
		if sv := q.Get("step"); sv != "" {
			d, err := time.ParseDuration(sv)
			if err != nil || d < 0 {
				http.Error(w, "bad step: want a duration (10s)", http.StatusBadRequest)
				return
			}
			query.Step = d
		}
		if sv := q.Get("limit"); sv != "" {
			n, err := strconv.Atoi(sv)
			if err != nil || n <= 0 {
				http.Error(w, "bad limit: want a positive integer", http.StatusBadRequest)
				return
			}
			query.Limit = n // Run clamps to MaxQueryLimit
		}
		out.Series = s.Run(query, now)
		if out.Series == nil {
			out.Series = []Series{}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
}
