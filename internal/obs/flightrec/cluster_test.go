package flightrec

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
)

// orphanLaneBase is where obs.WriteChromeTrace starts the synthetic lanes
// of probe events with no known owning span.
const orphanLaneBase = int64(1) << 40

// chromeDoc decodes the merged trace back for assertions.
type chromeDoc struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   int64             `json:"ts"`
		Pid  int               `json:"pid"`
		Tid  int64             `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
}

// TestClusterTraceSkewCorrection merges a synthetic 3-worker dump whose
// events arrive already shifted onto the master clock (the master's
// connection reader applies each worker's skew estimate), listed in the
// REVERSE of their clock order: the merge must order them by stamp
// across hosts, each host on its own lane. The shift itself is
// workqueue's TestWorkerStampsLandOnMasterClock.
func TestClusterTraceSkewCorrection(t *testing.T) {
	base := int64(1_000_000_000_000_000) // arbitrary wall-clock origin, ns
	us := int64(time.Microsecond)
	ev := func(ring string, localT0 int64) []Event {
		return []Event{{Ring: ring, Probe: "codec.encode", T0: localT0, T1: localT0 + 10*us}}
	}
	hosts := []obs.HostEvents{
		// Master-clock times: master 50µs, w-b 100µs, w-c 200µs, w-a 300µs.
		{Host: "master", Events: ev("master", base+50*us)},
		{Host: "w-a", Events: ev("codec", base+300*us)},
		{Host: "w-b", Events: ev("codec", base+100*us)},
		{Host: "w-c", Events: ev("codec", base+200*us)},
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, nil, hosts); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace does not parse: %v", err)
	}

	// Per-host lane assignment: process_name metas name every host, and
	// each host's events carry that host's pid.
	procName := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			procName[e.Pid] = e.Args["name"]
		}
	}
	if procName[1] != "master" {
		t.Errorf("pid 1 = %q, want master", procName[1])
	}
	wantPids := map[string]int{"master": 1, "host w-a": 2, "host w-b": 3, "host w-c": 4}
	for name, pid := range wantPids {
		if procName[pid] != name {
			t.Errorf("pid %d = %q, want %q (sorted per-host lanes)", pid, procName[pid], name)
		}
	}

	// Event ordering: master-clock order, not listing order.
	var order []string
	var ts []int64
	pidByHost := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Cat != "flightrec" {
			continue
		}
		order = append(order, e.Args["host"])
		ts = append(ts, e.Ts)
		if prev, ok := pidByHost[e.Args["host"]]; ok && prev != e.Pid {
			t.Errorf("host %s events span pids %d and %d", e.Args["host"], prev, e.Pid)
		}
		pidByHost[e.Args["host"]] = e.Pid
	}
	want := []string{"master", "w-b", "w-c", "w-a"}
	if len(order) != len(want) {
		t.Fatalf("got %d flightrec events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("merged order = %v, want %v", order, want)
		}
	}
	// Origin is the earliest timestamp (master's 50µs event), so
	// relative times are 0, 50, 150, 250µs.
	wantTs := []int64{0, 50, 150, 250}
	for i := range wantTs {
		if ts[i] != wantTs[i] {
			t.Errorf("event %d ts = %dµs, want %dµs", i, ts[i], wantTs[i])
		}
	}
	// Distinct lanes: 4 hosts -> 4 distinct pids.
	seen := map[int]bool{}
	for _, pid := range pidByHost {
		if seen[pid] {
			t.Errorf("two hosts share pid %d", pid)
		}
		seen[pid] = true
	}
}

// TestClusterTraceSpansAndParents checks spans land on their recording
// host's lane and parented probe events nest in the owning span's lane.
func TestClusterTraceSpansAndParents(t *testing.T) {
	start := time.Unix(0, 1_000_000_000_000_000)
	spans := []obs.Span{
		{ID: 7, Name: "job", Start: start, End: start.Add(time.Millisecond)},
		{ID: 9, Parent: 7, Proc: "w-1", Name: "exec", Start: start.Add(100 * time.Microsecond), End: start.Add(900 * time.Microsecond)},
	}
	hosts := []obs.HostEvents{
		{Host: "w-1", Events: []Event{
			{Ring: "codec", Probe: "codec.encode", Parent: 9, T0: start.UnixNano() + 200_000, T1: start.UnixNano() + 210_000},
			{Ring: "codec", Probe: "codec.decode", T0: start.UnixNano() + 300_000, T1: start.UnixNano() + 310_000},
		}},
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, spans, hosts); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var masterSpanPid, workerSpanPid, parentedPid, orphanPid int
	var parentedTid, orphanTid int64
	for _, e := range doc.TraceEvents {
		switch {
		case e.Cat == "sstd" && e.Name == "job":
			masterSpanPid = e.Pid
		case e.Cat == "sstd" && e.Name == "exec":
			workerSpanPid = e.Pid
		case e.Cat == "flightrec" && e.Name == "codec.encode":
			parentedPid, parentedTid = e.Pid, e.Tid
		case e.Cat == "flightrec" && e.Name == "codec.decode":
			orphanPid, orphanTid = e.Pid, e.Tid
		}
	}
	if masterSpanPid != 1 {
		t.Errorf("master span pid = %d, want 1", masterSpanPid)
	}
	if workerSpanPid != 2 {
		t.Errorf("worker span pid = %d, want 2", workerSpanPid)
	}
	// The parented event renders on its host's pid, in the root span's lane.
	if parentedPid != 2 || parentedTid != 7 {
		t.Errorf("parented event pid/tid = %d/%d, want 2/7", parentedPid, parentedTid)
	}
	// The orphan event gets a synthetic per-(host,ring) lane on the host pid.
	if orphanPid != 2 || orphanTid < orphanLaneBase {
		t.Errorf("orphan event pid/tid = %d/%d, want pid 2, synthetic lane", orphanPid, orphanTid)
	}
}
