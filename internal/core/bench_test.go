package core

import (
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/hmm/hmmtest"
	"github.com/social-sensing/sstd/internal/tracegen"
)

// benchEngine returns an engine with one 120-interval claim and a warm
// model cache, the steady state a long-running TD worker decodes from.
func benchEngine(b *testing.B) *Engine {
	b.Helper()
	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	cfg.RetrainGrowth = 0.5
	e, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := synthClaim(e, "c", 120, 60, 0.1, 42); err != nil {
		b.Fatal(err)
	}
	if _, err := e.DecodeClaim("c"); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkDecodeClaim measures the steady-state scratch decode path:
// cached model, reused workspace, estimates written in place.
func BenchmarkDecodeClaim(b *testing.B) {
	e := benchEngine(b)
	sc := NewDecodeScratch()
	var dst []Estimate
	var err error
	if dst, err = e.DecodeClaimInto(sc, "c", dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = e.DecodeClaimInto(sc, "c", dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeClaimSeed replays the seed steady-state decode on the
// frozen hmmtest kernels: a fresh ACS series, quantized observations,
// per-cell-log Viterbi lattice and estimate slice were all allocated on
// every decode.
func BenchmarkDecodeClaimSeed(b *testing.B) {
	e := benchEngine(b)
	model, err := e.TrainedModelFor("c")
	if err != nil {
		b.Fatal(err)
	}
	e.mu.RLock()
	st := e.claims["c"]
	e.mu.RUnlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := st.acc.Series()
		obs := e.decoder.disc.QuantizeAllInto(series, nil)
		path, _ := hmmtest.Viterbi(model.Discrete, obs)
		truth := pathToTruthInto(path, model.TrueState, nil)
		est := make([]Estimate, len(truth))
		for t, v := range truth {
			est[t] = Estimate{Start: st.acc.grid.origin.Add(time.Duration(t) * st.acc.grid.interval), Value: v}
		}
		if len(est) == 0 {
			b.Fatal("empty decode")
		}
	}
}

// BenchmarkDecodeClaimLong is one cold decode at the production shape —
// what dtm.finalize pays per job on the minute grid: quantize, Baum-Welch
// from the informative prior to convergence (36 iterations on this
// series), Viterbi. The series is the first Boston claim of the
// decode_heavy workload.
func BenchmarkDecodeClaimLong(b *testing.B) {
	series := claimSeries(b, tracegen.BostonBombing())[0]
	dec, err := NewDecoder(DefaultDecoderConfig())
	if err != nil {
		b.Fatal(err)
	}
	sc := NewDecodeScratch()
	if _, err := dec.DecodeInto(sc, series); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.DecodeInto(sc, series); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamAppend(b *testing.B) {
	bench := func(b *testing.B, warm bool) {
		cfg := DefaultDecoderConfig()
		cfg.Train.WarmStart = warm
		s, err := NewStreamingDecoder(cfg, 4)
		if err != nil {
			b.Fatal(err)
		}
		vals := flipSeries(256, 128, 42)
		// Prime past the 2*lag window so every measured append does a
		// full sliding-window retrain+decode.
		for _, v := range vals[:16] {
			if _, err := s.Append(v); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Append(vals[i%len(vals)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) { bench(b, false) })
	b.Run("warm", func(b *testing.B) { bench(b, true) })
}

// BenchmarkViterbiLong is the Viterbi step of BenchmarkDecodeClaimLong
// alone: the model trained once on the series, then the quantized series
// decoded under it per op. It reports the cost per interval.
func BenchmarkViterbiLong(b *testing.B) {
	series := claimSeries(b, tracegen.BostonBombing())[0]
	dec, err := NewDecoder(DefaultDecoderConfig())
	if err != nil {
		b.Fatal(err)
	}
	sc := NewDecodeScratch()
	m, _, err := dec.TrainWarmScratch(sc, series, nil)
	if err != nil {
		b.Fatal(err)
	}
	if sc.path, _, err = m.Discrete.ViterbiWS(sc.ws, sc.obs, sc.path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sc.path, _, err = m.Discrete.ViterbiWS(sc.ws, sc.obs, sc.path); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(series)), "ns/interval")
}
