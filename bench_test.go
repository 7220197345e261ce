// Benchmarks regenerating each of the paper's evaluation artifacts
// (Tables II-V, Figures 4-7) at reduced trace scale, plus micro-benchmarks
// of the hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// The per-table benchmarks print one artifact per run via b.Logf-free
// stdout only under -v; their timing is the regeneration cost, which is
// what Fig. 4-style comparisons care about.
package sstd_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/social-sensing/sstd"
	"github.com/social-sensing/sstd/internal/baselines"
	"github.com/social-sensing/sstd/internal/claimdep"
	"github.com/social-sensing/sstd/internal/condor"
	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/experiments"
	"github.com/social-sensing/sstd/internal/hmm"
	"github.com/social-sensing/sstd/internal/nlp"
	"github.com/social-sensing/sstd/internal/rto"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/tracegen"
	"github.com/social-sensing/sstd/internal/workqueue"
)

// benchOpts are the shared reduced-scale experiment options. The timing
// figures use a lower per-report cost so a full -bench=. sweep stays fast.
func benchOpts() experiments.Options {
	return experiments.Options{
		Scale:           0.01,
		Seed:            7,
		Intervals:       80,
		WindowIntervals: 3,
		Workers:         4,
		PerReportCost:   10 * time.Microsecond,
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAccuracyTable(b *testing.B, prof tracegen.Profile) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		reports, err := experiments.AccuracyTable(prof, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) != 7 {
			b.Fatalf("got %d methods", len(reports))
		}
	}
}

func BenchmarkTableIII_Boston(b *testing.B) { benchAccuracyTable(b, tracegen.BostonBombing()) }
func BenchmarkTableIV_Paris(b *testing.B)   { benchAccuracyTable(b, tracegen.ParisShooting()) }
func BenchmarkTableV_Football(b *testing.B) { benchAccuracyTable(b, tracegen.CollegeFootball()) }

func BenchmarkFig4_ExecutionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(tracegen.ParisShooting(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_StreamingSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(tracegen.ParisShooting(), []int{10, 20}, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6_DeadlineHitRate(b *testing.B) {
	o := benchOpts()
	o.Scale = 0.004 // 100 distributed interval runs per iteration
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(tracegen.ParisShooting(), o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7_Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 3 {
			b.Fatal("unexpected series count")
		}
	}
}

func BenchmarkAblationWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationWindow(tracegen.BostonBombing(), []int{1, 3, 10}, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkHMMDecode measures one claim's full train + Viterbi decode over
// an 80-step ACS sequence — the unit of work of a TD job's final stage.
func BenchmarkHMMDecode(b *testing.B) {
	dec, err := core.NewDecoder(core.DefaultDecoderConfig())
	if err != nil {
		b.Fatal(err)
	}
	series := make([]float64, 80)
	for i := range series {
		if i < 40 {
			series[i] = 3
		} else {
			series[i] = -3
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(series); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaumWelch measures EM training on a 200-step binary sequence.
func BenchmarkBaumWelch(b *testing.B) {
	obs := make([]int, 200)
	for i := range obs {
		if (i/25)%2 == 0 {
			obs[i] = 1
		}
	}
	cfg := hmm.DefaultTrainConfig()
	cfg.MaxIterations = 20
	ws := hmm.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &hmm.Discrete{
			A:  [][]float64{{0.5, 0.5}, {0.5, 0.5}},
			B:  [][]float64{{0.7, 0.3}, {0.3, 0.7}},
			Pi: []float64{0.5, 0.5},
		}
		if _, err := m.BaumWelchWS(ws, [][]int{obs}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineIngest measures the streaming ingest path.
func BenchmarkEngineIngest(b *testing.B) {
	origin := time.Date(2016, 9, 30, 12, 0, 0, 0, time.UTC)
	eng, err := sstd.NewEngine(sstd.DefaultConfig(origin))
	if err != nil {
		b.Fatal(err)
	}
	r := sstd.Report{
		Source: "s", Claim: "c", Timestamp: origin,
		Attitude: sstd.Agree, Uncertainty: 0.2, Independence: 0.9,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Timestamp = origin.Add(time.Duration(i) * time.Second)
		if err := eng.Ingest(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineIngestTelemetry is BenchmarkEngineIngest with a live
// metrics registry; comparing the two shows the cost of telemetry on the
// hottest path (the off state, above, pays only nil checks).
func BenchmarkEngineIngestTelemetry(b *testing.B) {
	origin := time.Date(2016, 9, 30, 12, 0, 0, 0, time.UTC)
	cfg := sstd.DefaultConfig(origin)
	cfg.Metrics = sstd.NewMetricsRegistry()
	eng, err := sstd.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := sstd.Report{
		Source: "s", Claim: "c", Timestamp: origin,
		Attitude: sstd.Agree, Uncertainty: 0.2, Independence: 0.9,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Timestamp = origin.Add(time.Duration(i) * time.Second)
		if err := eng.Ingest(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScorerPipeline measures raw-text semantic scoring of one
// claim's stream at a post a second: tokenizing, the three scorers of
// Eq. 1, and an independence window that fills to 600 reports. On a 2-core
// box ≈6.5 µs, 236 B and 2 allocations per post (13.7 µs, 5.7 kB and 65
// before the front end tokenized once into hashed sets). On the raw-post
// path scoring is a quarter of Process and the claim generator most of the
// rest: BenchmarkProcess in internal/pipeline has the whole of it.
func BenchmarkScorerPipeline(b *testing.B) {
	s := sstd.NewScorer()
	origin := time.Now()
	texts := []string{
		"two explosions at the boston marathon finish line",
		"i think there might be a second device maybe",
		"RT @user: two explosions at the boston marathon finish line",
		"the bomb threat at the library is fake news",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScorePost(sstd.Post{
			Source: "u", Claim: "c",
			Timestamp: origin.Add(time.Duration(i) * time.Second),
			Text:      texts[i%len(texts)],
		})
	}
}

// BenchmarkBaselines measures each batch estimator on a fixed mid-size
// dataset, the comparison Fig. 4 draws at one data point.
func BenchmarkBaselines(b *testing.B) {
	g, err := tracegen.New(tracegen.ParisShooting(), 7)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := g.Generate(0.01)
	if err != nil {
		b.Fatal(err)
	}
	ds := baselines.BuildDataset(tr.Reports)
	ests := []baselines.Estimator{
		&baselines.MajorityVote{},
		baselines.NewTruthFinder(),
		baselines.NewRTD(),
		baselines.NewCATD(),
		baselines.NewInvest(),
		baselines.NewThreeEstimates(),
	}
	for _, est := range ests {
		est := est
		b.Run(est.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				est.Estimate(ds)
			}
		})
	}
}

// BenchmarkTraceGeneration measures synthetic workload generation.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := tracegen.New(tracegen.BostonBombing(), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Generate(0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkACSSeries measures sliding-window materialization.
func BenchmarkACSSeries(b *testing.B) {
	origin := time.Now()
	acc, err := core.NewACSAccumulator(core.ACSConfig{Interval: time.Minute, WindowIntervals: 5}, origin)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		acc.Add(socialsensing.Report{
			Source: "s", Claim: "c",
			Timestamp: origin.Add(time.Duration(i%2000) * time.Minute),
			Attitude:  socialsensing.Agree, Independence: 1,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := acc.Series(); len(s) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkWorkqueueThroughput measures task round-trips through the
// in-process pool (4 workers, trivial tasks).
func BenchmarkWorkqueueThroughput(b *testing.B) {
	benchWorkqueue(b, 4)
}

// BenchmarkPosterior measures forward-backward truth posteriors over an
// 80-step ACS sequence.
func BenchmarkPosterior(b *testing.B) {
	dec, err := core.NewDecoder(core.DefaultDecoderConfig())
	if err != nil {
		b.Fatal(err)
	}
	series := make([]float64, 80)
	for i := range series {
		if i%13 < 7 {
			series[i] = 3
		} else {
			series[i] = -3
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Posterior(series); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamingDecoderAppend measures the fixed-lag incremental
// decode cost per new observation on a long-running stream.
func BenchmarkStreamingDecoderAppend(b *testing.B) {
	sd, err := core.NewStreamingDecoder(core.DefaultDecoderConfig(), 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := 3.0
		if i%17 > 8 {
			v = -3
		}
		if _, err := sd.Append(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDependencyGraph measures correlation-graph estimation over 20
// claims x 80 intervals.
func BenchmarkDependencyGraph(b *testing.B) {
	series := make(map[socialsensing.ClaimID][]float64, 20)
	for c := 0; c < 20; c++ {
		s := make([]float64, 80)
		for t := range s {
			if (t/(5+c%5))%2 == 0 {
				s[t] = 2
			} else {
				s[t] = -2
			}
		}
		series[socialsensing.ClaimID(fmt.Sprintf("c%02d", c))] = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := claimdep.EstimateGraph(series, claimdep.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRTOSolve measures the integer-program allocator on a 25-job
// interval.
func BenchmarkRTOSolve(b *testing.B) {
	jobs := make([]rto.JobSpec, 25)
	for i := range jobs {
		jobs[i] = rto.JobSpec{
			ID:       fmt.Sprintf("claim-%02d", i),
			DataSize: float64(50 + 100*i),
			Deadline: 50 * time.Millisecond,
		}
	}
	model := rto.Model{InitTime: time.Millisecond, Theta2: 50 * time.Microsecond}
	limits := rto.DefaultLimits()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rto.Solve(jobs, model, limits); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvictionSimulation measures the churned virtual scheduler.
func BenchmarkEvictionSimulation(b *testing.B) {
	cm := condor.CostModel{InitTime: time.Millisecond, PerUnit: 10 * time.Microsecond, Dispatch: 100 * time.Microsecond}
	tasks := make([]condor.VirtualTask, 200)
	for i := range tasks {
		tasks[i] = condor.VirtualTask{JobID: fmt.Sprintf("j%d", i%16), Work: 500}
	}
	slots := make([]condor.Slot, 32)
	for i := range slots {
		slots[i] = condor.Slot{ID: i + 1, Node: "n", Speed: 1}
	}
	ev := condor.PoolChurn(slots, 4, 100*time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := condor.SimulateEvictions(tasks, slots, cm, ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStanceClassifier measures trained polarity scoring.
func BenchmarkStanceClassifier(b *testing.B) {
	c := nlp.NewDefaultStanceClassifier()
	texts := []string{
		"confirmed two explosions at the marathon finish line",
		"that shooting story is fake news stop spreading it",
		"the game is tied now",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Score(texts[i%len(texts)])
	}
}

func benchWorkqueue(b *testing.B, workers int) {
	b.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := workqueue.NewMaster(workqueue.MasterConfig{ResultBuffer: 1024})
	p := workqueue.NewPool(m, func(_ context.Context, payload []byte) ([]byte, error) {
		return payload, nil
	})
	p.Resize(ctx, workers)
	defer p.Close()
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			<-m.Results()
		}
	}()
	for i := 0; i < b.N; i++ {
		err := m.Submit(workqueue.Task{
			ID:      fmt.Sprintf("t%d", i),
			JobID:   fmt.Sprintf("j%d", i%8),
			Payload: []byte("x"),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	<-done
}
