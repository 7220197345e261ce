package experiments

import (
	"strconv"

	"github.com/social-sensing/sstd/internal/evalmetrics"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/tracegen"
)

// AblationPoint is one configuration's effectiveness in an ablation sweep.
type AblationPoint struct {
	Label  string
	Report evalmetrics.Report
}

// AblationWindow sweeps the ACS sliding window size (Eq. 4's sw), showing
// the robustness/responsiveness trade-off: windows too short are noisy,
// too long lag behind truth changes.
func AblationWindow(prof tracegen.Profile, windows []int, o Options) ([]AblationPoint, error) {
	o = o.withDefaults()
	tr, err := generate(prof, o)
	if err != nil {
		return nil, err
	}
	var out []AblationPoint
	for _, w := range windows {
		ow := o
		ow.WindowIntervals = w
		fn, err := sstdBatch(tr, ow)
		if err != nil {
			return nil, err
		}
		conf, err := evalmetrics.EvaluateDynamic(tr, fn, evalWidth(tr, ow))
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{
			Label:  "sw=" + strconv.Itoa(w),
			Report: evalmetrics.ReportOf("SSTD", conf),
		})
	}
	return out, nil
}

// AblationContribution compares the full contribution score of Eq. 1
// against degraded variants: attitude only (kappa and eta dropped),
// no-uncertainty, and no-independence. Degradation is applied to the
// scored reports before aggregation.
func AblationContribution(prof tracegen.Profile, o Options) ([]AblationPoint, error) {
	o = o.withDefaults()
	tr, err := generate(prof, o)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		label string
		mod   func(socialsensing.Report) socialsensing.Report
	}{
		{"full-cs", func(r socialsensing.Report) socialsensing.Report { return r }},
		{"no-uncertainty", func(r socialsensing.Report) socialsensing.Report { r.Uncertainty = 0; return r }},
		{"no-independence", func(r socialsensing.Report) socialsensing.Report { r.Independence = 1; return r }},
		{"attitude-only", func(r socialsensing.Report) socialsensing.Report {
			r.Uncertainty = 0
			r.Independence = 1
			return r
		}},
	}
	var out []AblationPoint
	for _, v := range variants {
		mtr := *tr
		mtr.Reports = make([]socialsensing.Report, len(tr.Reports))
		for i, r := range tr.Reports {
			mtr.Reports[i] = v.mod(r)
		}
		fn, err := sstdBatch(&mtr, o)
		if err != nil {
			return nil, err
		}
		conf, err := evalmetrics.EvaluateDynamic(&mtr, fn, evalWidth(&mtr, o))
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{Label: v.label, Report: evalmetrics.ReportOf("SSTD", conf)})
	}
	return out, nil
}
