package hmm_test

import (
	"math/rand"
	"testing"

	"github.com/social-sensing/sstd/internal/hmm"
	"github.com/social-sensing/sstd/internal/hmm/hmmtest"
)

// The *Seed benchmarks run the frozen pre-rewrite kernels from hmmtest on
// identical inputs, so `go test -bench . -benchmem` puts the before/after
// numbers side by side on the same machine. scripts/check.sh bench
// flattens both into BENCH_hmm.json, the tracked baseline.
//
// BaumWelch and BaumWelchLong measure the plain EM
// pass: an op is a fixed number of them (PlainPasses: one-pass fits,
// which never extrapolate, the sequences laid out once). TrainLong
// measures what a claim's fit costs, passes and extrapolations together.

const (
	benchT   = 128
	benchSym = 5
	// benchIters fixes the EM work per op: this many plain passes, the
	// Seed benchmarks' tolerance being unreachable.
	benchIters = 10
)

func benchCfg() hmm.TrainConfig {
	return hmm.TrainConfig{
		MaxIterations: benchIters,
		Tolerance:     1e-300,
		SmoothA:       1e-3,
		SmoothB:       1e-3,
		SmoothPi:      1e-3,
	}
}

func benchModelAndObs() (*hmm.Discrete, []int) {
	rng := rand.New(rand.NewSource(42))
	return randDiscrete(rng, benchSym), randObs(rng, benchT, benchSym)
}

func BenchmarkBaumWelch(b *testing.B) {
	m, obs := benchModelAndObs()
	pristine := m.Clone()
	seqs := [][]int{obs}
	cfg := benchCfg()
	ws := hmm.NewWorkspace()
	if err := m.PlainPasses(ws, seqs, cfg, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restoreDiscrete(m, pristine)
		if err := m.PlainPasses(ws, seqs, cfg, benchIters); err != nil {
			b.Fatal(err)
		}
	}
}

// The *Long pair measures the kernel at the production shape: one claim's
// minute-grid series (T = 5 748, the decode_heavy workload's mean) of
// five symbols that persist for runs of about seven intervals, emissions
// frozen as core.DefaultDecoderConfig trains them. T = 128 fits every
// lattice in L1 and hides the memory traffic a real claim pays.
const (
	benchLongT     = 5748
	benchLongIters = 20
	benchLongRun   = 7
)

func benchLongModelAndObs() (*hmm.Discrete, []int) {
	obs := runObs(rand.New(rand.NewSource(42)), benchLongT, benchSym, benchLongRun)
	// The decoder's informative prior: sticky transitions, linear
	// emission ramps.
	m := &hmm.Discrete{
		A:  [][]float64{{0.9, 0.1}, {0.1, 0.9}},
		B:  [][]float64{make([]float64, benchSym), make([]float64, benchSym)},
		Pi: []float64{0.5, 0.5},
	}
	for k := 0; k < benchSym; k++ {
		m.B[0][k] = float64(benchSym-k) / 15
		m.B[1][k] = float64(k+1) / 15
	}
	return m, obs
}

func benchLongCfg() hmm.TrainConfig {
	cfg := benchCfg()
	cfg.MaxIterations = benchLongIters
	cfg.FreezeEmissions = true
	return cfg
}

func reportPerIntervalIter(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchLongT/benchLongIters, "ns/interval/iter")
}

func BenchmarkBaumWelchLong(b *testing.B) {
	m, obs := benchLongModelAndObs()
	pristine := m.Clone()
	seqs := [][]int{obs}
	cfg := benchLongCfg()
	ws := hmm.NewWorkspace()
	run := func() {
		restoreDiscrete(m, pristine)
		if err := m.PlainPasses(ws, seqs, cfg, benchLongIters); err != nil {
			b.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
		b.Fatalf("BaumWelchWS allocates %.1f objects per run at T=%d, want 0", allocs, benchLongT)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	reportPerIntervalIter(b)
}

// BenchmarkTrainLong is one cold fit of the Long claim with the decoder's
// default config (emissions frozen): the Baum-Welch a decode_heavy claim
// pays. It reports the passes the fit took.
func BenchmarkTrainLong(b *testing.B) {
	m, obs := benchLongModelAndObs()
	pristine := m.Clone()
	seqs := [][]int{obs}
	cfg := hmm.DefaultTrainConfig()
	cfg.FreezeEmissions = true
	ws := hmm.NewWorkspace()
	var res hmm.TrainResult
	run := func() {
		restoreDiscrete(m, pristine)
		var err error
		if res, err = m.BaumWelchWS(ws, seqs, cfg); err != nil || !res.Converged {
			b.Fatalf("BaumWelchWS: %+v, %v", res, err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(res.Iterations), "passes/op")
}

func BenchmarkBaumWelchLongSeed(b *testing.B) {
	m, obs := benchLongModelAndObs()
	pristine := m.Clone()
	seqs := [][]int{obs}
	cfg := benchLongCfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restoreDiscrete(m, pristine)
		if _, err := hmmtest.BaumWelch(m, seqs, cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportPerIntervalIter(b)
}

func BenchmarkBaumWelchSeed(b *testing.B) {
	m, obs := benchModelAndObs()
	pristine := m.Clone()
	seqs := [][]int{obs}
	cfg := benchCfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restoreDiscrete(m, pristine)
		if _, err := hmmtest.BaumWelch(m, seqs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViterbi(b *testing.B) {
	m, obs := benchModelAndObs()
	ws := hmm.NewWorkspace()
	path := make([]int, len(obs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		path, _, err = m.ViterbiWS(ws, obs, path)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViterbiSeed(b *testing.B) {
	m, obs := benchModelAndObs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path, _ := hmmtest.Viterbi(m, obs)
		if len(path) != len(obs) {
			b.Fatal("bad path")
		}
	}
}
