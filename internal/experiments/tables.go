package experiments

import (
	"fmt"

	"github.com/social-sensing/sstd/internal/baselines"
	"github.com/social-sensing/sstd/internal/evalmetrics"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/stream"
	"github.com/social-sensing/sstd/internal/tracegen"
)

// TableII generates the three traces and returns their statistics.
func TableII(o Options) ([]socialsensing.Stats, error) {
	o = o.withDefaults()
	out := make([]socialsensing.Stats, 0, 3)
	for _, prof := range tracegen.Profiles() {
		tr, err := generate(prof, o)
		if err != nil {
			return nil, fmt.Errorf("table II %s: %w", prof.Name, err)
		}
		out = append(out, tr.Summarize())
	}
	return out, nil
}

// AccuracyTable reproduces one of Tables III-V: effectiveness of SSTD and
// the six baselines on the named trace, scored per interval against the
// evolving ground truth.
func AccuracyTable(prof tracegen.Profile, o Options) ([]evalmetrics.Report, error) {
	o = o.withDefaults()
	tr, err := generate(prof, o)
	if err != nil {
		return nil, err
	}
	return AccuracyTableOn(tr, o)
}

// AccuracyTableOn runs the effectiveness comparison on an existing trace.
func AccuracyTableOn(tr *socialsensing.Trace, o Options) ([]evalmetrics.Report, error) {
	o = o.withDefaults()
	width := evalWidth(tr, o)
	var out []evalmetrics.Report

	sstd, err := sstdAccuracy(tr, o)
	if err != nil {
		return nil, err
	}
	out = append(out, sstd)

	// DynaTD (streaming).
	batches, err := stream.SplitByInterval(tr, width)
	if err != nil {
		return nil, err
	}
	bs := make([]batch, len(batches))
	for i, b := range batches {
		bs[i] = batch{start: b.Start, reports: b.Reports}
	}
	tl := runStreaming(baselines.NewDynaTD(), bs)
	conf, err := evalmetrics.EvaluateDynamic(tr, tl.truthFunc(), width)
	if err != nil {
		return nil, err
	}
	out = append(out, evalmetrics.ReportOf("DynaTD", conf))

	// Batch baselines: one verdict per claim over the whole trace.
	ds := baselines.BuildDataset(tr.Reports)
	for _, est := range batchEstimators() {
		fn := staticTruthFunc(est.Estimate(ds))
		conf, err := evalmetrics.EvaluateDynamic(tr, fn, width)
		if err != nil {
			return nil, err
		}
		out = append(out, evalmetrics.ReportOf(est.Name(), conf))
	}
	return out, nil
}

// sstdAccuracy is the SSTD row of an accuracy table: the engine's batch
// decode of the whole trace scored per interval. o must have its defaults
// filled.
func sstdAccuracy(tr *socialsensing.Trace, o Options) (evalmetrics.Report, error) {
	fn, err := sstdBatch(tr, o)
	if err != nil {
		return evalmetrics.Report{}, fmt.Errorf("sstd: %w", err)
	}
	conf, err := evalmetrics.EvaluateDynamic(tr, fn, evalWidth(tr, o))
	if err != nil {
		return evalmetrics.Report{}, err
	}
	return evalmetrics.ReportOf("SSTD", conf), nil
}
