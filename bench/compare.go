package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is how the benchmark's acceptance rule measures spread. One value
// is its own three quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spec is the part of BENCHMARK.json the program reads: -compare takes the
// bounds from it, and the smoke test holds the program's catalogue to it.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// timedValues groups a result file's timed runs by workload and metric.
func timedValues(f *resultFile) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range f.Runs {
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// compareFiles prints one row per end-to-end metric and workload: both
// medians, the ratio with its base, the bound from BENCHMARK.json and a
// verdict. A pairing whose run-to-run spread (interquartile range over
// median, on either side) exceeds its bound is unresolved: the runs cannot
// tell a change of that size from noise.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return errors.New("-compare needs two result files: base.json new.json")
	}
	var sp spec
	if err := readJSON("BENCHMARK.json", &sp); err != nil {
		return fmt.Errorf("bounds come from BENCHMARK.json in the working directory: %w", err)
	}
	var a, b resultFile
	if err := readJSON(paths[0], &a); err != nil {
		return err
	}
	if err := readJSON(paths[1], &b); err != nil {
		return err
	}
	va, vb := timedValues(&a), timedValues(&b)
	fmt.Printf("%-16s %-20s %12s %12s %22s %6s %8s %8s  %s\n",
		"workload", "metric", "base", "new", "ratio", "bound", "spread_a", "spread_b", "verdict")
	bad := 0
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			xa, xb := va[w.name][m.Name], vb[w.name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-16s %-20s missing from one of the files\n", w.name, m.Name)
				bad++
				continue
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			spreadA, spreadB := ratio(a3-a1, a2), ratio(b3-b1, b2)
			worse := ratio(b2-a2, a2) // relative change in the "worse" direction
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "unchanged"
			switch {
			case spreadA > m.Bound || spreadB > m.Bound:
				verdict = "unresolved"
				bad++
			case worse > m.Bound:
				verdict = "worse"
				bad++
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-16s %-20s %12.4f %12.4f %9.4f x base %-6.4g %6.3f %8.4f %8.4f  %s\n",
				w.name, m.Name, a2, b2, ratio(b2, a2), a2, m.Bound, spreadA, spreadB, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d pairings are worse, unresolved or missing", bad)
	}
	return nil
}
