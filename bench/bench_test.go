package main

import (
	"math"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func readSpec(t *testing.T) spec {
	t.Helper()
	var sp spec
	if err := readJSON("../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// sameDefs fails unless the program's catalogue and the JSON's list name
// the same metrics with the same units, each once.
func sameDefs(t *testing.T, kind string, defs []metricDef, listed []specMetric) {
	t.Helper()
	units := make(map[string]string, len(listed))
	for _, m := range listed {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s metric name %q is outside the allowed character set", kind, m.Name)
		}
		if _, dup := units[m.Name]; dup {
			t.Errorf("%s metric %s is listed twice in BENCHMARK.json", kind, m.Name)
		}
		units[m.Name] = m.Unit
	}
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if seen[d.name] {
			t.Errorf("%s metric %s is declared twice in the program", kind, d.name)
		}
		seen[d.name] = true
		unit, ok := units[d.name]
		if !ok {
			t.Errorf("%s metric %s is emitted but BENCHMARK.json does not name it", kind, d.name)
		} else if unit != d.unit {
			t.Errorf("%s metric %s: program says %q, BENCHMARK.json says %q", kind, d.name, d.unit, unit)
		}
	}
	for name := range units {
		if !seen[name] {
			t.Errorf("%s metric %s is named in BENCHMARK.json but never emitted", kind, name)
		}
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	sp := readSpec(t)
	sameDefs(t, "end_to_end", endToEnd, sp.EndToEnd)
	sameDefs(t, "per_layer", perLayer, sp.PerLayer)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is outside the allowed character set", w.Name)
		}
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// checkRun asserts that a run emitted exactly the catalogue, each value
// finite and carrying its unit, and that no output check failed.
func checkRun(t *testing.T, defs []metricDef, res *runResult) {
	t.Helper()
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("attempted=%d failed=%d", res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, catalogue has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", d.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v is not finite", d.name, m.Value)
		case m.Unit != d.unit:
			t.Errorf("%s carries unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestSmoke runs both passes of every workload briefly on tiny inputs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			timed, err := timedRun(runSpec{w: w, seed: 3, seconds: 1, tiny: true})
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, endToEnd, timed)

			traced, err := tracedRun(runSpec{w: w, seed: 3, seconds: 2, tiny: true})
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, perLayer, traced)
			sum := 0.0
			for _, stage := range []string{"job.dispatch_share", "job.exec_span_share", "job.tail_share"} {
				sum += traced.Metrics[stage].Value
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("one-outstanding stage shares sum to %v, want 1", sum)
			}
		})
	}
}
