// Command sstd runs the full SSTD pipeline over a trace — either a file
// produced by the tracegen command or a freshly generated synthetic trace —
// and prints the decoded truth timelines and their accuracy against the
// trace's ground truth.
//
// Usage:
//
//	sstd -trace paris -scale 0.01                 # generate and run
//	sstd -in boston.json.gz -workers 8            # run a saved trace
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/dtm"
	"github.com/social-sensing/sstd/internal/evalmetrics"
	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/sourcerel"
	"github.com/social-sensing/sstd/internal/traceio"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sstd:", err)
		os.Exit(1)
	}
}

func run() (retErr error) {
	var (
		in        = flag.String("in", "", "trace file to process (from the tracegen command)")
		trace     = flag.String("trace", "paris", "synthetic profile when -in is absent: boston, paris or football")
		scale     = flag.Float64("scale", 0.01, "synthetic trace scale")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 4, "worker pool size (0 = run in-process without the distributed layer)")
		intervals = flag.Int("intervals", 80, "HMM time steps across the trace")
		window    = flag.Int("window", 3, "ACS sliding window in intervals")
		show      = flag.Int("show", 3, "number of claim timelines to print")
		rank      = flag.Int("rank-sources", 0, "also print the N most / least reliable sources (0 = off)")
		telemetry = flag.String("telemetry", "", "write a metrics + control-loop JSON artifact to this file")
		deadline  = flag.Duration("deadline", 0, "per-job deadline enabling the PID control loop (distributed runs only)")
	)
	cli := obs.NewCLI(flag.CommandLine, false)
	flag.Parse()
	if err := cli.Start(); err != nil {
		return err
	}
	defer func() { retErr = errors.Join(retErr, cli.Close()) }()

	tr, err := traceio.LoadOrGenerate(*in, *trace, *scale, *seed)
	if err != nil {
		return err
	}
	st := tr.Summarize()
	fmt.Printf("trace %s: %d reports, %d sources, %d claims over %s\n",
		st.Name, st.Reports, st.Sources, st.Claims, st.Duration)

	width := tr.Duration() / time.Duration(*intervals)
	cfg := core.DefaultConfig(tr.Start)
	cfg.ACS.Interval = width
	cfg.ACS.WindowIntervals = *window

	var tel sinks
	if *telemetry != "" {
		tel.metrics = obs.NewRegistry()
		tel.tracer = obs.NewTracer(0)
		tel.control = obs.NewControlRecorder(0)
	}

	start := time.Now()
	decoded, err := decode(tr, cfg, *workers, *seed, *deadline, tel)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if *telemetry != "" {
		if err := obs.WriteArtifactFile(*telemetry, tel.metrics, tel.control); err != nil {
			return fmt.Errorf("write telemetry: %w", err)
		}
		fmt.Printf("telemetry artifact written to %s (%d control samples, %d spans)\n",
			*telemetry, tel.control.Len(), tel.tracer.Total())
	}

	conf, err := evalmetrics.EvaluateDynamic(tr, func(c socialsensing.ClaimID, at time.Time) (socialsensing.TruthValue, bool) {
		return core.TruthAt(decoded[c], at)
	}, width)
	if err != nil {
		return err
	}
	rep := evalmetrics.ReportOf("SSTD", conf)
	fmt.Printf("decoded %d claims in %s\n", len(decoded), elapsed.Round(time.Millisecond))
	fmt.Printf("accuracy=%.3f precision=%.3f recall=%.3f f1=%.3f\n",
		rep.Accuracy, rep.Precision, rep.Recall, rep.F1)

	printTimelines(tr, decoded, *show)
	if *rank > 0 {
		if err := printSourceRanking(tr, decoded, *rank); err != nil {
			return err
		}
	}
	return nil
}

// printSourceRanking scores every source against the decoded truth and
// prints the extremes of the reliability ranking.
func printSourceRanking(tr *socialsensing.Trace, decoded map[socialsensing.ClaimID][]core.Estimate, n int) error {
	cfg := sourcerel.DefaultConfig()
	cfg.MinReports = 5
	ranked, err := sourcerel.Ranked(tr.Reports, func(c socialsensing.ClaimID, at time.Time) (socialsensing.TruthValue, bool) {
		return core.TruthAt(decoded[c], at)
	}, cfg)
	if err != nil {
		return fmt.Errorf("rank sources: %w", err)
	}
	if n > len(ranked) {
		n = len(ranked)
	}
	fmt.Printf("\nsource reliability (of %d sources with >= %d reports):\n", len(ranked), cfg.MinReports)
	fmt.Printf("%-32s %8s %9s %16s\n", "source", "reports", "accuracy", "95% interval")
	for _, e := range ranked[:n] {
		fmt.Printf("%-32s %8d %9.3f [%5.3f, %5.3f]\n", e.Source, e.Reports, e.Accuracy, e.Lower, e.Upper)
	}
	if len(ranked) > n {
		fmt.Println("...")
		for _, e := range ranked[len(ranked)-n:] {
			fmt.Printf("%-32s %8d %9.3f [%5.3f, %5.3f]\n", e.Source, e.Reports, e.Accuracy, e.Lower, e.Upper)
		}
	}
	return nil
}

// sinks groups the optional -telemetry outputs threaded into decode.
type sinks struct {
	metrics *obs.Registry
	tracer  *obs.Tracer
	control *obs.ControlRecorder
}

// decode runs either the in-process engine or the distributed manager.
func decode(tr *socialsensing.Trace, cfg core.Config, workers int, seed int64, deadline time.Duration, tel sinks) (map[socialsensing.ClaimID][]core.Estimate, error) {
	if workers <= 0 {
		cfg.Metrics = tel.metrics
		eng, err := core.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		if err := eng.IngestAll(tr.Reports); err != nil {
			return nil, err
		}
		return eng.DecodeAll()
	}
	mcfg := dtm.DefaultConfig(tr.Start)
	mcfg.ACS = cfg.ACS
	mcfg.Decoder = cfg.Decoder
	mcfg.Workers = workers
	mcfg.Seed = seed
	mcfg.Metrics = tel.metrics
	mcfg.Tracer = tel.tracer
	mcfg.ControlLog = tel.control
	if deadline > 0 {
		// Deadlines only matter if the PID loop can react to them.
		mcfg.EnableControl = true
		mcfg.SampleEvery = dtm.SampleEveryFor(deadline)
	}
	m, err := dtm.New(mcfg)
	if err != nil {
		return nil, err
	}
	m.Start(context.Background())
	defer m.Close()
	byClaim := tr.ReportsByClaim()
	for claim, reports := range byClaim {
		if err := m.SubmitJob(claim, reports, deadline); err != nil {
			return nil, err
		}
	}
	out := make(map[socialsensing.ClaimID][]core.Estimate, len(byClaim))
	for range byClaim {
		res, ok := <-m.Results()
		if !ok {
			return nil, fmt.Errorf("manager results closed early")
		}
		if res.Err != nil {
			return nil, fmt.Errorf("claim %s: %w", res.Claim, res.Err)
		}
		out[res.Claim] = res.Estimates
	}
	return out, nil
}

// printTimelines renders the decoded truth of the busiest claims as
// compact T/F strips.
func printTimelines(tr *socialsensing.Trace, decoded map[socialsensing.ClaimID][]core.Estimate, show int) {
	byClaim := tr.ReportsByClaim()
	type sized struct {
		id socialsensing.ClaimID
		n  int
	}
	var order []sized
	for id, rs := range byClaim {
		order = append(order, sized{id, len(rs)})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].n != order[j].n {
			return order[i].n > order[j].n
		}
		return order[i].id < order[j].id
	})
	if show > len(order) {
		show = len(order)
	}
	for _, s := range order[:show] {
		est := decoded[s.id]
		strip := make([]byte, len(est))
		for i, e := range est {
			if e.Value == socialsensing.True {
				strip[i] = 'T'
			} else {
				strip[i] = 'f'
			}
		}
		fmt.Printf("%-28s (%5d reports) %s\n", s.id, s.n, strip)
	}
}
