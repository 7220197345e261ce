package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"
)

// ProbeEvent is one decoded flight-recorder probe record (flightrec.Event).
type ProbeEvent struct {
	Ring   string `json:"ring"`
	Probe  string `json:"probe"`
	T0     int64  `json:"t0"` // unix nanos
	T1     int64  `json:"t1"` // unix nanos
	Arg    int64  `json:"arg,omitempty"`
	Parent int64  `json:"parent,omitempty"` // owning tracer span ID
}

// HostEvents is one host's probe events for WriteChromeTrace: a worker's
// frozen ring snapshot, its stamps already on the master's clock, or the
// local recorder's (Host "" or "master").
type HostEvents struct {
	Host   string
	Events []ProbeEvent
}

// chromeEvent is one Chrome trace_event "complete" (ph=X) record, the
// format chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`  // µs relative to the earliest record
	Dur  int64             `json:"dur"` // µs
	Pid  int               `json:"pid"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeMeta is a Chrome trace_event metadata record (ph=M), naming a
// process or thread lane.
type chromeMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int64             `json:"tid,omitempty"`
	Args map[string]string `json:"args"`
}

// orphanLaneBase is the first synthetic lane for probe events whose owning
// span is unknown: far above real span IDs, so they render below the span
// lanes.
const orphanLaneBase = int64(1) << 40

// WriteChromeTrace is the one Chrome trace_event writer: a span timeline
// plus any number of hosts' probe events in one file. Pid 1 is "master"
// (spans with an empty Proc, events of host "" or "master"); every other
// host is "host <name>" with pids in name order, so lanes are stable run to
// run. Within a process each root span gets its own lane (tid) and
// descendants share it, which renders a TD job's queue → execute → merge →
// decode legs as one row; spans carry id/parent/trace args. Probe events
// render on their host's pid — in their owning span's lane when the span is known,
// else on one synthetic lane per (host, ring). Timestamps are microseconds
// from the earliest record and the file is time-ordered.
func WriteChromeTrace(w io.Writer, spans []Span, hosts []HostEvents) error {
	pidOf := map[string]int{"": 1, "master": 1}
	var names []string
	note := func(host string) {
		if _, ok := pidOf[host]; !ok {
			pidOf[host] = 0 // assigned below, after the sort
			names = append(names, host)
		}
	}
	var origin time.Time
	earliest := func(t time.Time) {
		if origin.IsZero() || t.Before(origin) {
			origin = t
		}
	}
	// parentOf resolves lanes: the root of a span's parent chain (a parent
	// may have been evicted from the ring; the chain then ends early).
	parentOf := make(map[int64]int64, len(spans))
	for _, s := range spans {
		note(s.Proc)
		earliest(s.Start)
		parentOf[s.ID] = s.Parent
	}
	for _, h := range hosts {
		note(h.Host)
		for _, e := range h.Events {
			earliest(time.Unix(0, e.T0))
		}
	}
	lane := func(id int64) int64 {
		for hops := 0; hops < 64; hops++ {
			p, ok := parentOf[id]
			if !ok || p == 0 {
				return id
			}
			id = p
		}
		return id
	}
	sort.Strings(names)
	metas := []chromeMeta{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]string{"name": "master"}}}
	for i, n := range names {
		pidOf[n] = i + 2
		metas = append(metas, chromeMeta{Name: "process_name", Ph: "M", Pid: i + 2, Args: map[string]string{"name": "host " + n}})
	}

	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		args := make(map[string]string, len(s.Attrs)+3)
		for k, v := range s.Attrs {
			args[k] = v
		}
		args["id"] = strconv.FormatInt(s.ID, 10)
		if s.Parent != 0 {
			args["parent"] = strconv.FormatInt(s.Parent, 10)
		}
		if s.Trace != "" {
			args["trace"] = s.Trace
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "sstd", Ph: "X",
			Ts:  s.Start.Sub(origin).Microseconds(),
			Dur: s.End.Sub(s.Start).Microseconds(),
			Pid: pidOf[s.Proc], Tid: lane(s.ID),
			Args: args,
		})
	}
	type hostRing struct {
		pid  int
		ring string
	}
	orphanLane := map[hostRing]int64{}
	for _, h := range hosts {
		pid := pidOf[h.Host]
		host := h.Host
		if host == "" {
			host = "master"
		}
		for _, e := range h.Events {
			var tid int64
			if _, known := parentOf[e.Parent]; known && e.Parent != 0 {
				tid = lane(e.Parent)
			} else {
				key := hostRing{pid, e.Ring}
				if tid = orphanLane[key]; tid == 0 {
					tid = orphanLaneBase + int64(len(orphanLane))
					orphanLane[key] = tid
					metas = append(metas, chromeMeta{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]string{"name": "flightrec " + e.Ring}})
				}
			}
			args := map[string]string{"ring": e.Ring, "host": host}
			if e.Arg != 0 {
				args["arg"] = strconv.FormatInt(e.Arg, 10)
			}
			if e.Parent != 0 {
				args["parent"] = strconv.FormatInt(e.Parent, 10)
			}
			events = append(events, chromeEvent{
				Name: e.Probe, Cat: "flightrec", Ph: "X",
				Ts:  time.Unix(0, e.T0).Sub(origin).Microseconds(),
				Dur: (e.T1 - e.T0) / int64(time.Microsecond),
				Pid: pid, Tid: tid,
				Args: args,
			})
		}
	}
	// Chrome sorts internally, but a time-ordered file makes the merged
	// timeline greppable and the merge-order tests direct.
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })

	// The envelope: metadata records first, then the events, one JSON
	// object per line.
	records := make([]any, 0, len(metas)+len(events))
	for _, m := range metas {
		records = append(records, m)
	}
	for _, ev := range events {
		records = append(records, ev)
	}
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, rec := range records {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(records)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", b, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// WriteChromeTraceFile writes WriteChromeTrace's output to path.
func WriteChromeTraceFile(path string, spans []Span, hosts []HostEvents) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, spans, hosts); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// WriteChromeTrace exports the buffered spans as a Chrome trace_event
// file; safe on nil.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, t.Spans(), nil)
}

// WriteChromeTraceFile writes the Chrome trace_event export to path — the
// one-file artifact of a distributed run, loadable in chrome://tracing or
// Perfetto.
func (t *Tracer) WriteChromeTraceFile(path string) error {
	return WriteChromeTraceFile(path, t.Spans(), nil)
}
