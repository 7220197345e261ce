package dtm

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
	"github.com/social-sensing/sstd/internal/socialsensing"
)

// TestFlightRecorderDeadlineMissDeepDive is the end-to-end flight
// recorder check: a 2-worker cluster runs jobs with an impossible
// deadline, the deadline-miss burst trips the recorder, and the dumped
// Chrome trace must contain HMM kernel-phase events nested under the
// job's decode span and codec frame events nested under task exec spans.
// The pool workers share the process recorder, so the master's gather
// step freezes them too, but they answer with no events: every probe sits
// once, on the master's lane. It is half of the flightrec tier of
// scripts/check.sh, which names the directory the dump is left in.
func TestFlightRecorderDeadlineMissDeepDive(t *testing.T) {
	dir := dumpDir(t, "FLIGHTREC_DIR")
	tracer := obs.NewTracer(4096)
	rec, err := flightrec.Enable(flightrec.Config{
		Dir:    dir,
		Window: 30 * time.Second,
		DumpOn: []string{flightrec.TrigDeadlineMiss},
		Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer flightrec.EnableCLI("", nil, nil, nil) // recording off again

	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	cfg.Workers = 2
	cfg.Tracer = tracer
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()

	// Three misses inside the burst window trip the recorder. A 1ns
	// deadline cannot be met by any real job.
	claims := []socialsensing.ClaimID{"c1", "c2", "c3"}
	for i, c := range claims {
		rs := flipReports(c, 20, 10, 4, 0.15, int64(i)+7)
		if err := m.SubmitJob(c, rs, time.Nanosecond); err != nil {
			t.Fatal(err)
		}
	}
	results := drain(t, m, len(claims))
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s error: %v", r.Claim, r.Err)
		}
		if r.MetDeadline {
			t.Fatalf("job %s met a 1ns deadline", r.Claim)
		}
	}
	// The burst trips in finalize's deferred observeJob, which can run
	// after the last result is delivered — poll for the dump.
	var dumps []flightrec.DumpInfo
	deadline := time.Now().Add(10 * time.Second)
	for len(dumps) == 0 {
		rec.Wait()
		dumps = rec.Dumps()
		if len(dumps) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("deadline-miss burst produced no deep-dive dump")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	d := dumps[0]
	if d.Trigger != flightrec.TrigDeadlineMiss {
		t.Errorf("dump trigger = %q, want %q", d.Trigger, flightrec.TrigDeadlineMiss)
	}
	if d.Path == "" || d.Events == 0 || d.Spans == 0 {
		t.Fatalf("dump incomplete: %+v", d)
	}
	if len(d.Hosts) != 1 || d.Hosts[0] != "master" {
		t.Errorf("dump hosts = %v, want [master]: the pool workers own no rings", d.Hosts)
	}

	raw, err := os.ReadFile(d.Path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			Ts   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("deep dive is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("deep dive has no trace events")
	}

	// Index the span timeline: decode spans own the kernel phases, exec
	// spans own the task frames on the wire.
	decodeSpans := map[string]bool{}
	execSpans := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Cat != "sstd" || ev.Ph != "X" {
			continue
		}
		id := ev.Args["id"]
		if id == "" {
			continue
		}
		switch {
		case strings.HasPrefix(ev.Name, "decode "):
			decodeSpans[id] = true
		case strings.HasPrefix(ev.Name, "exec "):
			execSpans[id] = true
		}
	}
	if len(decodeSpans) == 0 || len(execSpans) == 0 {
		t.Fatalf("span timeline incomplete: %d decode spans, %d exec spans", len(decodeSpans), len(execSpans))
	}

	kernelNested, codecNested := false, false
	probes := map[string]int{}
	type probeKey struct {
		name    string
		ts, dur int64
	}
	pidOf := map[probeKey]int{}
	for _, ev := range trace.TraceEvents {
		if ev.Cat != "flightrec" {
			continue
		}
		probes[ev.Name]++
		k := probeKey{ev.Name, ev.Ts, ev.Dur}
		if pid, seen := pidOf[k]; seen && pid != ev.Pid {
			t.Errorf("probe %+v is on pids %d and %d: a shared recorder was copied onto a worker lane", k, pid, ev.Pid)
		}
		pidOf[k] = ev.Pid
		if strings.HasPrefix(ev.Name, "master.") && ev.Pid != 1 {
			t.Errorf("master probe %s on pid %d, want the master's pid 1", ev.Name, ev.Pid)
		}
		parent := ev.Args["parent"]
		if strings.HasPrefix(ev.Name, "hmm.") && decodeSpans[parent] {
			kernelNested = true
		}
		if strings.HasPrefix(ev.Name, "codec.") && execSpans[parent] {
			codecNested = true
		}
	}
	if !kernelNested {
		t.Errorf("no HMM kernel-phase event nested under a decode span; probes seen: %v", probes)
	}
	if !codecNested {
		t.Errorf("no codec frame event nested under a task exec span; probes seen: %v", probes)
	}
	for _, want := range []string{"hmm.forward", "hmm.backward", "master.assign", "dtm.merge", "dtm.finalize"} {
		if probes[want] == 0 {
			t.Errorf("deep dive missing %s events; probes seen: %v", want, probes)
		}
	}
}

// dumpDir is where an end-to-end test leaves its trace: the directory env
// names when scripts/check.sh or CI set it (CI uploads the trace), a
// temporary one otherwise.
func dumpDir(t *testing.T, env string) string {
	t.Helper()
	dir := os.Getenv(env)
	if dir == "" {
		return t.TempDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}
