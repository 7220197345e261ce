// Package experiments regenerates every table and figure of the paper's
// evaluation section (§V) on the synthetic traces: Table II (trace
// statistics), Tables III-V (truth discovery effectiveness), Fig. 4
// (execution time vs data size), Fig. 5 (running time vs streaming speed),
// Fig. 6 (deadline hit rates) and Fig. 7 (speedup), plus the ablations
// called out in DESIGN.md. Absolute numbers depend on the host; the shapes
// are what EXPERIMENTS.md tracks against the paper.
package experiments

import (
	"time"

	"github.com/social-sensing/sstd/internal/baselines"
	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/tracegen"
)

// Options configures an experiment run.
type Options struct {
	// Scale is the trace size relative to the paper's datasets
	// (1.0 = full Table II volume). Default 0.01.
	Scale float64
	// Seed drives all generators.
	Seed int64
	// Intervals is the number of HMM time steps the trace duration is
	// divided into. Default 200.
	Intervals int
	// WindowIntervals is the ACS sliding window sw. Default 3.
	WindowIntervals int
	// Workers is the SSTD pool size for distributed runs (the paper
	// uses 4 in Fig. 4). Default 4.
	Workers int
	// PerReportCost models the per-report semantic preprocessing cost
	// (attitude/uncertainty/independence scoring) that dominates TD job
	// time on real traces. The timing experiments (Figs. 4-6) charge it
	// to every scheme — SSTD pays it inside its parallel workers, the
	// baselines serially — so the shapes do not collapse into constant
	// overheads at reduced trace scales. Default 50µs.
	PerReportCost time.Duration
	// ControlLog, when non-nil, captures every PID tick of the
	// control-enabled timing experiments (Fig. 6 and the PID ablation)
	// as a time series — the reproducible artifact behind the paper's
	// deadline-hit-rate claims.
	ControlLog *obs.ControlRecorder
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.01
	}
	if o.Intervals <= 0 {
		o.Intervals = 200
	}
	if o.WindowIntervals <= 0 {
		o.WindowIntervals = 3
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.PerReportCost <= 0 {
		o.PerReportCost = 50 * time.Microsecond
	}
	return o
}

// generate builds the trace for a profile under the options.
func generate(prof tracegen.Profile, o Options) (*socialsensing.Trace, error) {
	g, err := tracegen.New(prof, o.Seed)
	if err != nil {
		return nil, err
	}
	return g.Generate(o.Scale)
}

// engineConfig derives the SSTD engine configuration for a trace.
func engineConfig(tr *socialsensing.Trace, o Options) core.Config {
	width := tr.Duration() / time.Duration(o.Intervals)
	if width <= 0 {
		width = time.Second
	}
	cfg := core.DefaultConfig(tr.Start)
	cfg.ACS.Interval = width
	cfg.ACS.WindowIntervals = o.WindowIntervals
	return cfg
}

// batchEstimators returns the six batch baselines in the paper's order
// (DynaTD is streaming and handled separately).
func batchEstimators() []baselines.Estimator {
	return []baselines.Estimator{
		baselines.NewTruthFinder(),
		baselines.NewRTD(),
		baselines.NewCATD(),
		baselines.NewInvest(),
		baselines.NewThreeEstimates(),
	}
}

// evalWidth is the sampling width used when scoring dynamic truth.
func evalWidth(tr *socialsensing.Trace, o Options) time.Duration {
	w := tr.Duration() / time.Duration(o.Intervals)
	if w <= 0 {
		w = time.Second
	}
	return w
}
