package core

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/hmm"
	"github.com/social-sensing/sstd/internal/hmm/hmmtest"
	"github.com/social-sensing/sstd/internal/tracegen"
)

// claimSeries returns the ACS series of every claim of the profile's
// seed-42 trace at scale 0.05 on the one-minute grid, in claim order —
// the series the benchmark's decode_heavy (Boston) and stream_deadline
// (College Football) jobs decode.
func claimSeries(tb testing.TB, prof tracegen.Profile) [][]float64 {
	tb.Helper()
	gen, err := tracegen.New(prof, 42)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := gen.Generate(0.05)
	if err != nil {
		tb.Fatal(err)
	}
	acs := DefaultACSConfig()
	acs.Interval = time.Minute
	by := tr.ReportsByClaim()
	var out [][]float64
	for _, c := range tr.Claims {
		if len(by[c.ID]) == 0 {
			continue
		}
		acc, err := NewACSAccumulator(acs, tr.Start)
		if err != nil {
			tb.Fatal(err)
		}
		for _, r := range by[c.ID] {
			acc.Add(r)
		}
		out = append(out, acc.Series())
	}
	return out
}

// TestEMIterationCountsPinned: the stopping rule compares each plain
// pass's gain in the objective against 1e-6, so a kernel whose
// log-likelihood drifted by even 1e-7 would stop a fit a pass early or
// late and quietly change every decoded timeline downstream. The counts
// are E-step passes of the accelerated loop, refused passes from an
// extrapolation included. Their means, 22.8 and 18.5, are the benchmark's
// hmm.em_iterations_per_claim on those two workloads; plain EM, which the
// loop replaced, took 60.5 and 41.5 ([36 38 56 44 38 52 46 62 47 64 67
// 92 87 65 59 57 79 100] and [24 42 39 56 34 38 43 42 44 44 51]).
func TestEMIterationCountsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		prof tracegen.Profile
		want []int
	}{
		{"boston", tracegen.BostonBombing(), []int{16, 17, 24, 17, 16, 26, 17, 31, 22, 25, 23, 18, 25, 23, 21, 25, 26, 39}},
		{"college-football", tracegen.CollegeFootball(), []int{12, 16, 18, 29, 17, 16, 15, 21, 21, 20, 19}},
	} {
		dec, err := NewDecoder(DefaultDecoderConfig())
		if err != nil {
			t.Fatal(err)
		}
		sc := NewDecodeScratch()
		var got []int
		for _, series := range claimSeries(t, tc.prof) {
			_, res, err := dec.TrainWarmScratch(sc, series, nil)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, res.Iterations)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: EM iterations per claim = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRunCompressionGate pins the premise of discrete EM's run pass on
// the same series: an iteration costs one step per symbol run plus one
// 2×2 product per run table, which beats one step per interval only while
// the quantized series are mostly long runs whose lengths repeat. The
// gates are a median of at most one run per four intervals (0.126 Boston
// and 0.198 College Football when this was written) and at most one run
// table per four runs (0.107 and 0.059). A run table is what the kernel
// builds for a run length that is not a power of two, and for each tail
// of such a length below its top bit that is not one either. A
// discretizer or ACS window change that breaks the premise fails here.
func TestRunCompressionGate(t *testing.T) {
	dec, err := NewDecoder(DefaultDecoderConfig())
	if err != nil {
		t.Fatal(err)
	}
	median := func(v []float64) float64 {
		slices.Sort(v)
		return v[len(v)/2]
	}
	for _, tc := range []struct {
		name string
		prof tracegen.Profile
	}{
		{"boston", tracegen.BostonBombing()},
		{"college-football", tracegen.CollegeFootball()},
	} {
		var runsPerT, tablesPerRun, tablesPerClaim []float64
		for _, series := range claimSeries(t, tc.prof) {
			obs := dec.disc.QuantizeAllInto(series, nil)
			runs := 1
			for i := 1; i < len(obs); i++ {
				if obs[i] != obs[i-1] {
					runs++
				}
			}
			// The pass cuts steps 1..T-1 into runs.
			cut := 0
			tables := map[[2]int]bool{}
			for i := 1; i < len(obs); {
				run := 1
				for i+run < len(obs) && obs[i+run] == obs[i] {
					run++
				}
				for n := run; bits.OnesCount(uint(n)) > 1; n -= 1 << (bits.Len(uint(n)) - 1) {
					tables[[2]int{obs[i], n}] = true
				}
				cut++
				i += run
			}
			runsPerT = append(runsPerT, float64(runs)/float64(len(obs)))
			tablesPerRun = append(tablesPerRun, float64(len(tables))/float64(cut))
			tablesPerClaim = append(tablesPerClaim, float64(len(tables)))
		}
		runs, tables, perClaim := median(runsPerT), median(tablesPerRun), median(tablesPerClaim)
		t.Logf("%s: %d claims, median runs/T %.3f, median run tables/run %.3f, median run tables per claim %.0f",
			tc.name, len(runsPerT), runs, tables, perClaim)
		if runs > 0.25 {
			t.Errorf("%s: median runs/T = %.3f, want ≤ 1/4", tc.name, runs)
		}
		if tables > 0.25 {
			t.Errorf("%s: median run tables/run = %.3f, want ≤ 1/4", tc.name, tables)
		}
	}
}

// TestDecodeIntoMatchesTrainThenDecode: DecodeInto runs Viterbi on the
// symbols its training pass quantized instead of quantizing the series
// again. On every claim series of both profiles, decoded on one reused
// scratch, its truth must equal TrainWarmScratch followed by
// DecodeWithScratch bit for bit, each on a fresh scratch so that neither
// can see the other's symbols.
func TestDecodeIntoMatchesTrainThenDecode(t *testing.T) {
	dec, err := NewDecoder(DefaultDecoderConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := NewDecodeScratch()
	for _, prof := range []tracegen.Profile{tracegen.BostonBombing(), tracegen.CollegeFootball()} {
		for i, series := range claimSeries(t, prof) {
			m, _, err := dec.TrainWarmScratch(NewDecodeScratch(), series, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := dec.DecodeWithScratch(NewDecodeScratch(), m, series)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.DecodeInto(sc, series)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s claim %d: DecodeInto differs from TrainWarmScratch + DecodeWithScratch", prof.Name, i)
			}
		}
	}
}

// claimFit is one claim's fit: the decoder's start model and the
// quantized sequence it trains on.
type claimFit struct {
	m   *hmm.Discrete
	obs []int
}

// fit trains a clone of the start with cfg: by the loop, or, settle, by
// one-pass calls (which never extrapolate) until a pass moves no
// parameter by more than 1e-10, plain EM's own fixed point. It returns
// the fitted parameters and their log-likelihood.
func (c claimFit) fit(tb testing.TB, cfg hmm.TrainConfig, settle bool) ([]float64, float64) {
	tb.Helper()
	ws := hmm.NewWorkspace()
	m := c.m.Clone()
	params := func() []float64 { return slices.Concat(m.Pi, m.A[0], m.A[1], m.B[0], m.B[1]) }
	one := cfg
	one.MaxIterations = 1
	run := func(cfg hmm.TrainConfig) hmm.TrainResult {
		res, err := m.BaumWelchWS(ws, [][]int{c.obs}, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		return res
	}
	if !settle {
		run(cfg)
	}
	for n := 0; settle; n++ {
		before := params()
		run(one)
		if maxDiff(before, params()) < 1e-10 {
			break
		}
		if n == 1_000_000 {
			tb.Fatal("plain EM did not settle")
		}
	}
	// One more pass reports the fitted parameters' log-likelihood.
	got := params()
	return got, run(one).LogLikelihood
}

func maxDiff(a, b []float64) float64 {
	d := 0.0
	for k := range a {
		d = max(d, math.Abs(a[k]-b[k]))
	}
	return d
}

// TestSquaremFixedPointOnClaimSeries: on every claim series of both
// profiles, trained as the decoder trains them (emissions frozen), the
// accelerated loop fitted to Tolerance 1e-12 lands within 1e-6 of plain
// EM's fixed point, and with the default config its fit's log-likelihood
// is no lower, to the default Tolerance, than the frozen reference's: the
// plain EM this loop replaced, stopped by its own rule.
func TestSquaremFixedPointOnClaimSeries(t *testing.T) {
	dec, err := NewDecoder(DefaultDecoderConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, prof := range []tracegen.Profile{tracegen.BostonBombing(), tracegen.CollegeFootball()} {
		for i, series := range claimSeries(t, prof) {
			c := claimFit{m: dec.newDiscreteModel(), obs: dec.disc.QuantizeAllInto(series, nil)}
			name := fmt.Sprintf("%s claim %d", prof.Name, i)
			def := DefaultDecoderConfig().Train
			tight := def
			tight.Tolerance, tight.MaxIterations = 1e-12, 100_000
			got, _ := c.fit(t, tight, false)
			want, _ := c.fit(t, tight, true)
			if d := maxDiff(got, want); d > 1e-6 {
				t.Errorf("%s: the loop lands %g from plain EM's fixed point", name, d)
			}
			_, ll := c.fit(t, def, false)
			m := c.m.Clone()
			if _, err := hmmtest.BaumWelch(m, [][]int{c.obs}, def); err != nil {
				t.Fatal(err)
			}
			ref, _ := m.BaumWelchWS(hmm.NewWorkspace(), [][]int{c.obs}, hmm.TrainConfig{MaxIterations: 1})
			if ll < ref.LogLikelihood-def.Tolerance {
				t.Errorf("%s: default fit's log-likelihood %.12g is below plain EM's %.12g", name, ll, ref.LogLikelihood)
			}
		}
	}
}
