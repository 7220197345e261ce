// Command sstdctl inspects a running master's cluster telemetry plane:
//
//	sstdctl -addr http://localhost:8080 query                 # list retained series
//	sstdctl query -series wq_worker_tasks_total \
//	       -label worker=pool-worker-0 -since 5m -step 1s     # fetch points
//	sstdctl slo                                               # error-budget status
//	sstdctl dump                                              # trip the flight recorder: one trace, a lane per host
//	sstdctl dump -list                                        # list the recorder's dumps
//
// It reads the master's -telemetry address: /query (the retained
// time-series store), /slo (error budgets) and /debug/flightrec (the
// flight recorder, served when the master runs with -flight-record).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/social-sensing/sstd/internal/obs/flightrec"
	"github.com/social-sensing/sstd/internal/obs/slo"
	"github.com/social-sensing/sstd/internal/obs/tsdb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sstdctl:", err)
		os.Exit(1)
	}
}

// labelFlags collects repeatable -label k=v selectors.
type labelFlags map[string]string

func (l labelFlags) String() string { return fmt.Sprintf("%v", map[string]string(l)) }
func (l labelFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("label selector %q is not key=value", s)
	}
	l[k] = v
	return nil
}

// run executes one command line, printing its answer to out.
func run(args []string, out io.Writer) error {
	// A leading -addr may precede the subcommand.
	global := flag.NewFlagSet("sstdctl", flag.ContinueOnError)
	addr := global.String("addr", "http://localhost:8080", "master observability endpoint")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: sstdctl [-addr URL] query|slo|dump [flags]")
	}
	call := func(method, path string, q url.Values, v any) error {
		return request(method, strings.TrimRight(*addr, "/")+path, q, v)
	}
	cmd, rest := rest[0], rest[1:]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	switch cmd {
	case "query":
		series := fs.String("series", "", "series name (empty lists retained names)")
		since := fs.String("since", "", "lookback duration (5m) or RFC3339 instant")
		step := fs.String("step", "", "downsample bucket (1s)")
		limit := fs.Int("limit", 0, "max points per series")
		tail := fs.Int("tail", 5, "points shown per series")
		labels := labelFlags{}
		fs.Var(labels, "label", "label selector key=value (repeatable)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		q := url.Values{}
		for k, v := range map[string]string{"series": *series, "since": *since, "step": *step} {
			if v != "" {
				q.Set(k, v)
			}
		}
		if *limit > 0 {
			q.Set("limit", strconv.Itoa(*limit))
		}
		for k, v := range labels {
			q.Add("label", k+"="+v)
		}
		var res tsdb.QueryResult
		if err := call(http.MethodGet, "/query", q, &res); err != nil {
			return err
		}
		fmt.Fprint(out, formatQuery(&res, *tail))
	case "slo":
		if err := fs.Parse(rest); err != nil {
			return err
		}
		var statuses []slo.Status
		if err := call(http.MethodGet, "/slo", nil, &statuses); err != nil {
			return err
		}
		fmt.Fprint(out, formatSLO(statuses))
	case "dump":
		list := fs.Bool("list", false, "list the recorder's dumps instead of tripping it")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *list {
			var st struct{ Dumps []flightrec.DumpInfo }
			if err := call(http.MethodGet, "/debug/flightrec", nil, &st); err != nil {
				return err
			}
			if len(st.Dumps) == 0 {
				fmt.Fprintln(out, "no flight-recorder dumps")
			}
			for _, d := range st.Dumps {
				fmt.Fprint(out, formatDump(d))
			}
			return nil
		}
		var resp struct{ Dump *flightrec.DumpInfo }
		if err := call(http.MethodPost, "/debug/flightrec/trip", nil, &resp); err != nil {
			return err
		}
		if resp.Dump == nil {
			return fmt.Errorf("recorder tripped but reported no dump yet; see dump -list")
		}
		fmt.Fprint(out, formatDump(*resp.Dump))
	default:
		return fmt.Errorf("unknown command %q (want query|slo|dump)", cmd)
	}
	return nil
}

// request sends one request to u (with query values) and decodes the
// JSON reply into v. A non-200 reply's body becomes the error.
func request(method, u string, q url.Values, v any) error {
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequest(method, u, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, req.URL.Path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: %s: %s", method, req.URL.Path, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// formatQuery renders a query result for the terminal: a name listing
// for discovery queries, otherwise one block per series with its label
// set and last points.
func formatQuery(res *tsdb.QueryResult, tail int) string {
	var b strings.Builder
	if len(res.Series) == 0 {
		if len(res.Names) == 0 {
			return "no series retained\n"
		}
		fmt.Fprintf(&b, "%d series:\n", len(res.Names))
		for _, n := range res.Names {
			fmt.Fprintf(&b, "  %s\n", n)
		}
		return b.String()
	}
	if tail <= 0 {
		tail = 5
	}
	for _, s := range res.Series {
		fmt.Fprintf(&b, "%s%s  (%d points)\n", s.Name, formatLabels(s.Labels), len(s.Points))
		pts := s.Points
		if len(pts) > tail {
			pts = pts[len(pts)-tail:]
		}
		for _, p := range pts {
			fmt.Fprintf(&b, "  %s  %g\n", time.UnixMilli(p.T).UTC().Format("15:04:05.000"), p.V)
		}
	}
	return b.String()
}

func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, 0, len(labels))
	for k, v := range labels {
		parts = append(parts, fmt.Sprintf("%s=%q", k, v))
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

// formatSLO renders the error-budget table.
func formatSLO(statuses []slo.Status) string {
	if len(statuses) == 0 {
		return "no objectives configured\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-8s %10s %10s %10s %8s %7s\n",
		"SLO", "TARGET", "GOOD", "BAD", "FAST-BURN", "SLOW", "FIRING")
	for _, s := range statuses {
		firing := "no"
		if s.Firing {
			firing = fmt.Sprintf("YES (%s)", time.Since(s.FiringSince).Round(time.Second))
		}
		fmt.Fprintf(&b, "%-16s %-8.3g %10d %10d %10.2f %8.2f %7s\n",
			s.Name, s.Target, s.GoodTotal, s.BadTotal, s.FastBurn, s.SlowBurn, firing)
		fmt.Fprintf(&b, "  budget remaining: %.1f%%  alerts: %d\n", s.BudgetRemaining*100, s.Alerts)
	}
	return b.String()
}

// formatDump renders one flight-recorder dump.
func formatDump(d flightrec.DumpInfo) string {
	path := d.Path
	if path == "" {
		path = "(no file: the recorder has no dump directory)"
	}
	return fmt.Sprintf("%s  trigger=%s  hosts=%s  events=%d  spans=%d  %s\n  %s\n",
		d.Time.Format(time.RFC3339), d.Trigger, strings.Join(d.Hosts, ","), d.Events, d.Spans, d.Detail, path)
}
