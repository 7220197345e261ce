package core

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"
	"time"

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

// TestEMIterationCountsPinned: the log-likelihood stopping rule compares
// increments against 1e-6, so a kernel whose log-likelihood drifted by
// even 1e-7 would stop a fit an iteration early or late and quietly
// change every decoded timeline downstream. The counts below were
// recorded with the three-sweep kernel the fused 2-state pass replaced;
// they are the "same EM trajectory" half of its equivalence claim on the
// production series (the other half is hmm's 1e-12 parameter match).
// Their means, 60.5 and 41.5, are the benchmark's
// hmm.em_iterations_per_claim on those two workloads.
func TestEMIterationCountsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		prof tracegen.Profile
		want []int
	}{
		{"boston", tracegen.BostonBombing(), []int{36, 38, 56, 44, 38, 52, 46, 62, 47, 64, 67, 92, 87, 65, 59, 57, 79, 100}},
		{"college-football", tracegen.CollegeFootball(), []int{24, 42, 39, 56, 34, 38, 43, 42, 44, 44, 51}},
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

// TestRunCompressionGate pins the premise of discrete EM's piece pass on
// the same series: an iteration costs one step per binary piece of a
// symbol run, which beats one per interval by enough to pay for its
// tables only while the quantized series are mostly long runs. The gate
// is a median of at most one run per four intervals (0.126 Boston and
// 0.198 College Football when this was written). A discretizer or ACS
// window change that breaks the premise fails here.
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
		var runsPerT, piecesPerT []float64
		for _, series := range claimSeries(t, tc.prof) {
			obs := dec.disc.QuantizeAllInto(series, nil)
			runs := 1
			for i := 1; i < len(obs); i++ {
				if obs[i] != obs[i-1] {
					runs++
				}
			}
			// The pass cuts steps 1..T-1: a run of L steps is one piece
			// per bit of L.
			pieces := 0
			for i := 1; i < len(obs); {
				run := 1
				for i+run < len(obs) && obs[i+run] == obs[i] {
					run++
				}
				pieces += bits.OnesCount(uint(run))
				i += run
			}
			T := float64(len(obs))
			runsPerT = append(runsPerT, float64(runs)/T)
			piecesPerT = append(piecesPerT, float64(pieces)/T)
		}
		runs, pieces := median(runsPerT), median(piecesPerT)
		t.Logf("%s: %d claims, median runs/T %.3f, median pieces/T %.3f", tc.name, len(runsPerT), runs, pieces)
		if runs > 0.25 {
			t.Errorf("%s: median runs/T = %.3f, want ≤ 1/4", tc.name, runs)
		}
	}
}
