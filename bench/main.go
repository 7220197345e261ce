// Command bench is the repository's end-to-end benchmark: four workloads
// synthesised from a seed, driven through the public API of dtm, pipeline
// and core, checked against a single-node reference, and reported as the
// named metrics of BENCHMARK.json. See README.md.
//
//	go run ./bench -seed 42                     every workload, timed
//	go run ./bench -seed 42 -traced             ... plus the per-layer pass
//	go run ./bench -workload decode_heavy -seed 7 -seconds 25 -trace 0
//	go run ./bench -repeat 5 -out a.json        medians and quartiles
//	go run ./bench -compare a.json b.json       two result files, row by row
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "run this workload in this process and end with the result line (default: every workload, each in a child process)")
		seed    = flag.Int64("seed", 42, "seed every input is synthesised from")
		seconds = flag.Float64("seconds", 25, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics")
		traced  = flag.Bool("traced", false, "without -workload: run the per-layer pass after each timed run")
		repeat  = flag.Int("repeat", 1, "without -workload: runs per workload; medians and quartiles are reported")
		out     = flag.String("out", "", "without -workload: write every run to this JSON file")
		compare = flag.Bool("compare", false, "compare the two result files given as arguments")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace)
	default:
		err = runAll(*seed, *seconds, *repeat, *traced || *trace == 1, *out)
	}
	if err != nil {
		warnf("%v", err)
		os.Exit(1)
	}
}

// runOne is the contract's entry: one workload, one pass, the result line
// last on standard output. A failed output check exits non-zero after
// printing the line.
func runOne(name string, seed int64, seconds float64, trace int) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	spec := runSpec{w: w, seed: seed, seconds: seconds}
	defs, run := endToEnd, timedRun
	if trace == 1 {
		defs, run = perLayer, tracedRun
	}
	res, err := run(spec)
	if err != nil {
		return err
	}
	printMetrics(name, defs, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: output check failed (%d of %d failed)", name, res.Failed, res.Attempted)
	}
	return nil
}

func printMetrics(name string, defs []metricDef, res *runResult) {
	fmt.Printf("# %s: correct=%t attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Printf("%-44s %16.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
}

// recordedRun is one child run as kept in an -out file.
type recordedRun struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Seed     int64  `json:"seed"`
	runResult
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Meta struct {
		NProc      int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		GoVersion  string  `json:"go_version"`
		Seed       int64   `json:"seed"`
		Seconds    float64 `json:"seconds"`
		Repeat     int     `json:"repeat"`
	} `json:"meta"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string       `json:"claim"`
	Runs  []recordedRun `json:"runs"`
}

// runAll runs every workload repeat times, each run in a fresh child
// process so that peak RSS, GC state and pools never carry over.
func runAll(seed int64, seconds float64, repeat int, traced bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var file resultFile
	file.Meta.NProc, file.Meta.GOMAXPROCS, file.Meta.GoVersion = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	file.Meta.Seed, file.Meta.Seconds, file.Meta.Repeat = seed, seconds, repeat
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%g repeat=%d\n",
		file.Meta.NProc, file.Meta.GOMAXPROCS, file.Meta.GoVersion, seed, seconds, repeat)
	passes := []int{0}
	if traced {
		passes = append(passes, 1)
	}
	failed := false
	for _, w := range workloads {
		for _, trace := range passes {
			var runs []recordedRun
			for i := 0; i < repeat; i++ {
				run, err := runChild(self, w.name, seed, seconds, trace)
				if err != nil {
					return err
				}
				failed = failed || !run.Correct
				runs = append(runs, run)
			}
			file.Runs = append(file.Runs, runs...)
			printSummary(w.name, trace, runs)
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("at least one run failed its output check")
	}
	return nil
}

// runChild runs one workload pass in a child process and parses the
// result line it ends with.
func runChild(self, name string, seed int64, seconds float64, trace int) (recordedRun, error) {
	run := recordedRun{Workload: name, Trace: trace, Seed: seed}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if jsonErr := json.Unmarshal(lines[len(lines)-1], &run.runResult); jsonErr != nil {
		if err != nil {
			return run, fmt.Errorf("%s: %w", name, err)
		}
		return run, fmt.Errorf("%s: no result line: %w", name, jsonErr)
	}
	return run, nil
}

func printSummary(name string, trace int, runs []recordedRun) {
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	fmt.Printf("\n## %s (trace %d, %d runs): attempted=%d failed=%d failed_share=%.4f\n",
		name, trace, len(runs), attempted, failed, ratio(float64(failed), float64(attempted)))
	fmt.Printf("%-44s %14s %14s %14s %s\n", "metric", "median", "q1", "q3", "unit")
	for _, d := range defs {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.Metrics[d.name].Value
		}
		q1, q2, q3 := quartiles(vals)
		fmt.Printf("%-44s %14.4f %14.4f %14.4f %s\n", d.name, q2, q1, q3, d.unit)
	}
}
