package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// WriteJSON writes the expvar-style JSON form of the registry.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): counters, gauges, and histograms with
// cumulative le-labelled buckets. Metric names may carry a label block —
// `wq_worker_exec_ms{worker="w-1"}` — which is preserved on every sample
// line; the # TYPE header is emitted once per base name (label variants
// of one metric sort adjacently).
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	lastType := ""
	for _, name := range SortedKeys(s.Counters) {
		base, labels := promName(name)
		if base != lastType {
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", base); err != nil {
				return err
			}
			lastType = base
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", promSeries(base, labels), s.Counters[name]); err != nil {
			return err
		}
	}
	lastType = ""
	for _, name := range SortedKeys(s.Gauges) {
		base, labels := promName(name)
		if base != lastType {
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", base); err != nil {
				return err
			}
			lastType = base
		}
		if _, err := fmt.Fprintf(w, "%s %v\n", promSeries(base, labels), s.Gauges[name]); err != nil {
			return err
		}
	}
	lastType = ""
	for _, name := range SortedKeys(s.Histograms) {
		h := s.Histograms[name]
		base, labels := promName(name)
		if base != lastType {
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", base); err != nil {
				return err
			}
			lastType = base
		}
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			le := fmt.Sprintf("le=%q", trimFloat(bound))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, promLabels(labels, le), cum); err != nil {
				return err
			}
		}
		cum += h.Counts[len(h.Counts)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n%s_sum%s %v\n%s_count%s %d\n",
			base, promLabels(labels, `le="+Inf"`), cum,
			base, promLabels(labels), h.Sum,
			base, promLabels(labels), h.Count); err != nil {
			return err
		}
	}
	return nil
}

// promName splits a metric name into its Prometheus base name (mapped
// onto the legal charset) and an optional label block (the inside of a
// trailing {...}, with every label value re-escaped for the exposition
// format).
func promName(name string) (base, labels string) {
	base, rest, hasLabels := strings.Cut(name, "{")
	base = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		default:
			return '_'
		}
	}, base)
	if hasLabels {
		labels = sanitizeLabels(strings.TrimSuffix(rest, "}"))
	}
	return base, labels
}

// Label renders `base{k="v",...}` with every value escaped for the
// Prometheus exposition format. kv alternates key, value. This is the
// safe way to build labelled metric names from untrusted strings such as
// worker IDs.
func Label(base string, kv ...string) string {
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes the three characters the Prometheus text
// format requires escaping in label values: backslash, double-quote and
// newline. A raw newline would otherwise split the sample line and let a
// hostile value inject fake series.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// sanitizeLabels reparses a `k="v",...` label block and re-escapes every
// key and value, so metric names assembled without Label (or with hostile
// embedded IDs) cannot break the exposition format: an injected
// `"} fake_metric 1` ends up inside a label, not on a line of its own.
func sanitizeLabels(block string) string {
	var out []string
	ParseLabels(block, func(k, v string) {
		out = append(out, sanitizeLabelKey(k)+`="`+escapeLabelValue(v)+`"`)
	})
	return strings.Join(out, ",")
}

// ParseLabels walks a `k="v",...` label block — the inside of a metric
// name's {...} — calling each with every non-empty key and its value,
// escapes decoded (the inverse of Label). A value runs to its closing
// quote; what follows, up to the next '=', is the next key.
func ParseLabels(block string, each func(key, value string)) {
	for {
		eq := strings.IndexByte(block, '=')
		if eq < 0 {
			return
		}
		key := strings.TrimSpace(block[:eq])
		block = strings.TrimPrefix(block[eq+1:], `"`)
		var val strings.Builder
		i := 0
		for ; i < len(block); i++ {
			c := block[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' && i+1 < len(block) {
				i++
				switch block[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(block[i])
				default:
					val.WriteByte('\\')
					val.WriteByte(block[i])
				}
				continue
			}
			val.WriteByte(c)
		}
		block = strings.TrimLeft(block[i:], ", ")
		if key != "" {
			each(key, val.String())
		}
	}
}

func sanitizeLabelKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, key)
}

// promSeries renders one sample's series identifier.
func promSeries(base, labels string) string {
	if labels == "" {
		return base
	}
	return base + "{" + labels + "}"
}

// promLabels joins label fragments into a {...} block ("" when empty).
func promLabels(parts ...string) string {
	joined := ""
	for _, p := range parts {
		if p == "" {
			continue
		}
		if joined != "" {
			joined += ","
		}
		joined += p
	}
	if joined == "" {
		return ""
	}
	return "{" + joined + "}"
}

// trimFloat renders a bucket bound the way Prometheus expects (no
// trailing zeros, no scientific notation for the usual ranges).
func trimFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}

// Handler serves the telemetry surface:
//
//	/metrics        Prometheus text format (?format=json for JSON)
//	/trace          span dump as Chrome trace_event JSON (?format=json
//	                for the raw span list)
//	/logs           recent structured log entries as a JSON array
//	/debug/pprof/*  the standard runtime profiles
//
// reg, tr and lg may each be nil; their endpoints then serve empty
// documents.
func Handler(reg *Registry, tr *Tracer, lg *Logger) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = reg.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if req.URL.Query().Get("format") == "json" {
			_ = tr.WriteJSON(w)
			return
		}
		_ = tr.WriteChromeTrace(w)
	})
	mux.HandleFunc("/logs", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		q := req.URL.Query()
		limit := boundedLimit(q.Get("limit"), defaultLogsLimit, maxLogsLimit)
		var since time.Time
		if s := q.Get("since"); s != "" {
			var ok bool
			if since, ok = ParseSince(s, time.Now()); !ok {
				http.Error(w, "bad since: want a duration (5m) or RFC3339 time", http.StatusBadRequest)
				return
			}
		}
		min := LevelDebug
		if s := q.Get("level"); s != "" {
			min = ParseLogLevel(s)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = lg.WriteJSONFiltered(w, since, min, limit)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

const (
	defaultLogsLimit = 1000
	maxLogsLimit     = 10000
)

// boundedLimit parses a ?limit= param, applying a default when absent or
// unparseable and clamping to max so no request can dump an unbounded
// ring.
func boundedLimit(s string, def, max int) int {
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return def
	}
	if n > max {
		return max
	}
	return n
}

// ParseSince reads a ?since= lookback, the /logs and /query form: either a
// non-negative duration ("5m" → now-5m) or an absolute RFC3339 timestamp.
// ok is false for anything else.
func ParseSince(s string, now time.Time) (time.Time, bool) {
	if d, err := time.ParseDuration(s); err == nil && d >= 0 {
		return now.Add(-d), true
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, true
	}
	return time.Time{}, false
}

// SortedKeys returns m's keys in ascending order: the exporters, the
// telemetry store and the wire's telemetry encoding list a map in that
// order, so their output is byte-stable across runs.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
