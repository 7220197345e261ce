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

const (
	benchT   = 128
	benchSym = 5
	// benchIters fixes the EM work per op: the tolerance is unreachable,
	// so every op runs exactly this many full iterations.
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
	if _, err := m.BaumWelchWS(ws, seqs, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restoreDiscrete(m, pristine)
		if _, err := m.BaumWelchWS(ws, seqs, cfg); err != nil {
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
		if res, err := m.BaumWelchWS(ws, seqs, cfg); err != nil || res.Iterations != benchLongIters {
			b.Fatalf("BaumWelchWS: %+v, %v", res, err)
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

func BenchmarkGaussianBaumWelch(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	m := randGaussian(rng)
	obs := randGaussObs(rng, benchT)
	pristine := m.Clone()
	seqs := [][]float64{obs}
	cfg := benchCfg()
	ws := hmm.NewWorkspace()
	if _, err := m.BaumWelchWS(ws, seqs, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restoreGaussian(m, pristine)
		if _, err := m.BaumWelchWS(ws, seqs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGaussianBaumWelchSeed(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	m := randGaussian(rng)
	obs := randGaussObs(rng, benchT)
	pristine := m.Clone()
	seqs := [][]float64{obs}
	cfg := benchCfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restoreGaussian(m, pristine)
		if _, err := hmmtest.GaussBaumWelch(m, seqs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
