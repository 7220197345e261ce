// Command experiments regenerates the paper's tables and figures on the
// synthetic traces and prints them to stdout.
//
// Usage:
//
//	experiments -exp all                 # everything (slow)
//	experiments -exp table3 -scale 0.02  # one artifact
//
// Experiments: table2, table3 (Boston), table4 (Paris), table5 (Football),
// fig4, fig5, fig6, fig7 (incl. churned-pool variant), robustness,
// ablation-window, ablation-cs, ablation-dependency, ablation-pid.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/social-sensing/sstd/internal/experiments"
	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/tracegen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// experimentNames are the names -exp answers to, in the order they run.
var experimentNames = []string{"table2", "table3", "table4", "table5", "fig4", "fig5", "fig6", "fig7",
	"robustness", "ablation-window", "ablation-cs", "ablation-dependency", "ablation-pid"}

// run parses args, refuses an -exp name no experiment answers to before
// anything runs, and prints the selected experiments to w.
func run(args []string, w io.Writer) (retErr error) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		exp       = fs.String("exp", "all", "experiment to run (comma separated), or all")
		scale     = fs.Float64("scale", 0.02, "trace scale relative to the paper's datasets")
		seed      = fs.Int64("seed", 7, "random seed")
		workers   = fs.Int("workers", 4, "SSTD worker pool size")
		cost      = fs.Duration("per-report-cost", 50*time.Microsecond, "modelled per-report preprocessing cost for the timing figures")
		telemetry = fs.String("telemetry", "", "write the control-loop time series of the PID-driven experiments (fig6, ablation-pid) to this JSON file")
	)
	cli := obs.NewCLI(fs, false)
	fs.Parse(args)
	selected := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		e = strings.TrimSpace(e)
		if e != "all" && !slices.Contains(experimentNames, e) {
			return fmt.Errorf("unknown experiment %q (want all or a comma-separated list of %s)", e, strings.Join(experimentNames, ", "))
		}
		selected[e] = true
	}
	if err := cli.Start(); err != nil {
		return err
	}
	defer func() { retErr = errors.Join(retErr, cli.Close()) }()

	o := experiments.Options{
		Scale:         *scale,
		Seed:          *seed,
		Workers:       *workers,
		PerReportCost: *cost,
	}
	var controlLog *obs.ControlRecorder
	if *telemetry != "" {
		controlLog = obs.NewControlRecorder(0)
		o.ControlLog = controlLog
	}
	all := selected["all"]
	want := func(name string) bool { return all || selected[name] }

	if want("table2") {
		stats, err := experiments.TableII(o)
		if err != nil {
			return err
		}
		experiments.PrintTableII(w, stats)
		fmt.Fprintln(w)
	}
	accuracy := []struct {
		key   string
		title string
		prof  tracegen.Profile
	}{
		{"table3", "Table III - Boston Bombing", tracegen.BostonBombing()},
		{"table4", "Table IV - Paris Shooting", tracegen.ParisShooting()},
		{"table5", "Table V - College Football", tracegen.CollegeFootball()},
	}
	for _, a := range accuracy {
		if !want(a.key) {
			continue
		}
		reports, err := experiments.AccuracyTable(a.prof, o)
		if err != nil {
			return err
		}
		experiments.PrintAccuracyTable(w, a.title, reports)
		fmt.Fprintln(w)
	}
	if want("fig4") {
		for _, prof := range tracegen.Profiles() {
			pts, err := experiments.Fig4(prof, o)
			if err != nil {
				return err
			}
			experiments.PrintFig4(w, "Fig 4 - "+prof.Name, pts)
			fmt.Fprintln(w)
		}
	}
	if want("fig5") {
		// The streaming-speed experiment needs rates high enough that a
		// batch scheme's periodic re-run over all accumulated data
		// exceeds its 5 s re-run period. Generate a larger stream source
		// and charge a heavier (but still conservative) preprocessing
		// cost: the paper's Python pipeline spends well over 0.25 ms of
		// NLP per tweet.
		o5 := o
		if o5.Scale < 0.1 {
			o5.Scale = 0.1
		}
		o5.PerReportCost = 250 * time.Microsecond
		for _, prof := range tracegen.Profiles() {
			maxRate := int(float64(prof.TargetReports) * o5.Scale / experiments.StreamSeconds)
			var rates []int
			for _, r := range []int{50, 100, 200, 400} {
				if r <= maxRate {
					rates = append(rates, r)
				}
			}
			if len(rates) == 0 {
				fmt.Fprintf(w, "== Fig 5 - %s: trace too small at scale %v, skipping ==\n\n", prof.Name, o5.Scale)
				continue
			}
			pts, err := experiments.Fig5(prof, rates, o5)
			if err != nil {
				return err
			}
			experiments.PrintFig5(w, "Fig 5 - "+prof.Name, pts)
			fmt.Fprintln(w)
		}
	}
	// Per-interval volumes in Fig. 6 need to be in the paper's regime
	// (hundreds to thousands of reports per interval) for the distributed
	// pool to matter.
	o6 := o
	if o6.Scale < 0.1 {
		o6.Scale = 0.1
	}
	if want("fig6") {
		for _, prof := range tracegen.Profiles() {
			pts, err := experiments.Fig6(prof, o6)
			if err != nil {
				return err
			}
			experiments.PrintFig6(w, "Fig 6 - "+prof.Name, pts)
			fmt.Fprintln(w)
		}
	}
	if want("fig7") {
		series, err := experiments.Fig7(o)
		if err != nil {
			return err
		}
		experiments.PrintFig7(w, series)
		fmt.Fprintln(w)
		churned, err := experiments.Fig7Churn(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "-- heterogeneous pool with cycle-scavenging churn --")
		experiments.PrintFig7(w, churned)
		fmt.Fprintln(w)
	}
	if want("robustness") {
		pts, err := experiments.NoiseRobustness(tracegen.ParisShooting(), []float64{0.08, 0.15, 0.22, 0.3}, o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Robustness - accuracy vs unreliable source fraction (Paris) ==")
		fmt.Fprintf(w, "%-14s", "Method")
		for _, p := range pts {
			fmt.Fprintf(w, " %9.0f%%", p.NoiseFrac*100)
		}
		fmt.Fprintln(w)
		methods := []string{"SSTD", "DynaTD", "TruthFinder", "RTD", "CATD", "Invest", "3-Estimates"}
		for _, m := range methods {
			fmt.Fprintf(w, "%-14s", m)
			for _, p := range pts {
				fmt.Fprintf(w, " %10.3f", p.Accuracy[m])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	if want("ablation-window") {
		pts, err := experiments.AblationWindow(tracegen.BostonBombing(), []int{1, 2, 3, 5, 10, 20}, o)
		if err != nil {
			return err
		}
		experiments.PrintAblation(w, "Ablation - ACS sliding window (Boston)", pts)
		fmt.Fprintln(w)
	}
	if want("ablation-cs") {
		pts, err := experiments.AblationContribution(tracegen.ParisShooting(), o)
		if err != nil {
			return err
		}
		experiments.PrintAblation(w, "Ablation - contribution score components (Paris)", pts)
		fmt.Fprintln(w)
	}
	if want("ablation-dependency") {
		pts, err := experiments.AblationDependency(tracegen.BostonBombing(), o)
		if err != nil {
			return err
		}
		experiments.PrintAblation(w, "Ablation - claim dependency model (Boston, correlated claims)", pts)
		fmt.Fprintln(w)
	}
	if want("ablation-pid") {
		pts, err := experiments.AblationPID(tracegen.ParisShooting(), o6)
		if err != nil {
			return err
		}
		experiments.PrintFig6(w, "Ablation - allocation policy: RTO vs PID vs static (Paris)", pts)
		fmt.Fprintln(w)
	}
	if *telemetry != "" {
		if err := obs.WriteArtifactFile(*telemetry, nil, controlLog); err != nil {
			return fmt.Errorf("write telemetry: %w", err)
		}
		fmt.Fprintf(w, "control-loop telemetry written to %s (%d PID samples)\n", *telemetry, controlLog.Len())
	}
	return nil
}
