package core

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

func origin() time.Time { return time.Date(2015, 1, 7, 11, 0, 0, 0, time.UTC) }

func report(minute int, att socialsensing.Attitude) socialsensing.Report {
	return socialsensing.Report{
		Source:       "s",
		Claim:        "c",
		Timestamp:    origin().Add(time.Duration(minute) * time.Minute),
		Attitude:     att,
		Uncertainty:  0,
		Independence: 1,
	}
}

func TestACSConfigValidation(t *testing.T) {
	if _, err := NewACSAccumulator(ACSConfig{Interval: 0, WindowIntervals: 1}, origin()); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewACSAccumulator(ACSConfig{Interval: time.Minute, WindowIntervals: 0}, origin()); err == nil {
		t.Error("zero window accepted")
	}
}

func TestACSSeriesSlidingWindow(t *testing.T) {
	acc, err := NewACSAccumulator(ACSConfig{Interval: time.Minute, WindowIntervals: 2}, origin())
	if err != nil {
		t.Fatal(err)
	}
	// +1 at minute 0, +1 at minute 1, -1 at minute 3.
	acc.Add(report(0, socialsensing.Agree))
	acc.Add(report(1, socialsensing.Agree))
	acc.Add(report(3, socialsensing.Disagree))
	got := acc.Series()
	// Window of 2 intervals: t0: 1; t1: 1+1=2; t2: 1 (t0 dropped); t3: -1.
	want := []float64{1, 2, 1, -1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Series() = %v, want %v", got, want)
	}
}

func TestACSWindowOneIsPerInterval(t *testing.T) {
	acc, _ := NewACSAccumulator(ACSConfig{Interval: time.Minute, WindowIntervals: 1}, origin())
	acc.Add(report(0, socialsensing.Agree))
	acc.Add(report(0, socialsensing.Agree))
	acc.Add(report(2, socialsensing.Disagree))
	want := []float64{2, 0, -1}
	if got := acc.Series(); !reflect.DeepEqual(got, want) {
		t.Errorf("Series() = %v, want %v", got, want)
	}
}

func TestACSEarlyReportsClamped(t *testing.T) {
	acc, _ := NewACSAccumulator(ACSConfig{Interval: time.Minute, WindowIntervals: 1}, origin())
	acc.Add(report(-10, socialsensing.Agree))
	if got := acc.Series(); !reflect.DeepEqual(got, []float64{1}) {
		t.Errorf("Series() = %v, want [1]", got)
	}
}

func TestACSEmpty(t *testing.T) {
	acc, _ := NewACSAccumulator(DefaultACSConfig(), origin())
	if got := acc.Series(); got != nil {
		t.Errorf("empty Series() = %v, want nil", got)
	}
	if acc.Len() != 0 || acc.Count() != 0 {
		t.Errorf("empty accumulator Len=%d Count=%d", acc.Len(), acc.Count())
	}
}

func TestACSIntervalStart(t *testing.T) {
	acc, _ := NewACSAccumulator(ACSConfig{Interval: time.Minute, WindowIntervals: 1}, origin())
	if got := acc.IntervalStart(3); !got.Equal(origin().Add(3 * time.Minute)) {
		t.Errorf("IntervalStart(3) = %v", got)
	}
}

func TestACSWindowSumMatchesBruteForce(t *testing.T) {
	// Property: ACS at t equals the brute-force sum over the window.
	f := func(seed int64) bool {
		const n, window = 40, 5
		acc, err := NewACSAccumulator(ACSConfig{Interval: time.Minute, WindowIntervals: window}, origin())
		if err != nil {
			return false
		}
		perInterval := make([]float64, n)
		rng := seed
		next := func() int64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng }
		for i := 0; i < n; i++ {
			k := int(uint64(next()) % 3)
			for j := 0; j < k; j++ {
				att := socialsensing.Agree
				if next()%2 == 0 {
					att = socialsensing.Disagree
				}
				acc.Add(report(i, att))
				perInterval[i] += float64(att)
			}
		}
		series := acc.Series()
		if len(series) == 0 {
			return true
		}
		for t2 := range series {
			want := 0.0
			for j := t2; j > t2-window && j >= 0; j-- {
				want += perInterval[j]
			}
			if math.Abs(series[t2]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// subIndex and beforeIndex are the two Sub-based slot definitions Grid
// replaced: the task encoder's and the accumulator's.
func subIndex(ts, origin time.Time, interval time.Duration) int {
	if d := ts.Sub(origin); d > 0 {
		return int(d / interval)
	}
	return 0
}

func beforeIndex(ts, origin time.Time, interval time.Duration) int {
	if ts.Before(origin) {
		return 0
	}
	return int(ts.Sub(origin) / interval)
}

// TestGridIndexMatchesSub holds Grid.Index to both definitions on times
// before, at and after the origin, ±1 ns around slot boundaries, both
// ends of Sub's ±292-year saturation and of Index's ≈285-year exact
// range, origins and timestamps with and without monotonic readings, and
// non-UTC locations.
func TestGridIndexMatchesSub(t *testing.T) {
	const maxDur = time.Duration(math.MaxInt64)
	now := time.Now() // carries a monotonic reading
	tokyo, minus := time.FixedZone("JST", 9*3600), time.FixedZone("X", -(3*3600+30*60))
	origins := []time.Time{origin(), origin().In(tokyo), now, now.Round(0), now.Round(0).In(minus), {}, time.Unix(0, 999_999_999)}
	intervals := []time.Duration{1, 7, time.Second, 1500 * time.Millisecond, time.Minute, time.Hour, 24 * time.Hour}
	rng := uint64(42)
	next := func() int64 { rng = rng*6364136223846793005 + 1442695040888963407; return int64(rng >> 1) }
	checked := 0
	for _, o := range origins {
		for _, iv := range intervals {
			var offsets []time.Duration
			for _, k := range []int64{-3, -1, 0, 1, 2, 59, 1e6, 1e9} {
				b := time.Duration(k) * iv
				offsets = append(offsets, b-1, b, b+1)
			}
			offsets = append(offsets, maxDur, maxDur-1, -maxDur, -maxDur-1, 9e9*time.Second, -9e9*time.Second)
			for i := 0; i < 200; i++ {
				offsets = append(offsets, time.Duration(next()%int64(1000*iv+1)), -time.Duration(next()%int64(1000*iv+1)), time.Duration(next()))
			}
			var stamps []time.Time
			for _, d := range offsets {
				ts := o.Add(d)
				stamps = append(stamps, ts, ts.Round(0), ts.In(tokyo), ts.Add(time.Nanosecond).In(minus))
			}
			for _, years := range []int{-300, -293, -292, -286, -285, 285, 286, 292, 293, 300} {
				ts := o.AddDate(years, 0, 0)
				stamps = append(stamps, ts, ts.Add(-1), ts.Add(1))
			}
			g := NewGrid(o, iv)
			// A cursor holding a timestamp holds its slot: over the stamps
			// as listed, where neighbours share a slot, and in time order.
			cursorIndex := func(c *GridCursor, ts time.Time) int {
				if c.Holds(ts) {
					return c.Slot()
				}
				return c.Seek(ts)
			}
			cur, sorted := g.Cursor(), g.Cursor()
			for _, ts := range stamps {
				got, want := g.Index(ts), subIndex(ts, o, iv)
				if got != want || want != beforeIndex(ts, o, iv) {
					t.Fatalf("NewGrid(%v, %v).Index(%v) = %d, Sub-based slot %d, Before-guarded %d", o, iv, ts, got, want, beforeIndex(ts, o, iv))
				}
				if c := cursorIndex(&cur, ts); c != want {
					t.Fatalf("NewGrid(%v, %v) cursor at %v: slot %d, Index %d", o, iv, ts, c, want)
				}
				checked++
			}
			slices.SortFunc(stamps, time.Time.Compare)
			for _, ts := range stamps {
				if c, want := cursorIndex(&sorted, ts), g.Index(ts); c != want {
					t.Fatalf("NewGrid(%v, %v) cursor in time order at %v: slot %d, Index %d", o, iv, ts, c, want)
				}
			}
		}
	}
	// Times derived by Add keep equal wall and monotonic gaps; two separate
	// clock readings usually do not, by a few ns, which tells Sub's
	// monotonic path from its wall-clock one on a 1 ns grid.
	diverged := 0
	for i := 0; i < 1000; i++ {
		o, ts := time.Now(), time.Now()
		if ts.Sub(o) == ts.Round(0).Sub(o.Round(0)) {
			continue
		}
		g := NewGrid(o, 1)
		if got, want := g.Index(ts), subIndex(ts, o, 1); got != want {
			t.Fatalf("monotonic origin %v: Index(%v) = %d, Sub-based slot %d", o, ts, got, want)
		}
		// Clocks this far apart can put a timestamp in a slot its wall
		// clock does not: a cursor must not answer from wall seconds.
		hours := NewGrid(o, time.Hour)
		cur := hours.Cursor()
		if cur.Seek(ts); cur.Holds(ts) {
			t.Fatalf("monotonic origin %v: a cursor holds %v by its wall clock", o, ts)
		}
		diverged++
	}
	t.Logf("%d (origin, interval, timestamp) triples agree, %d of them with diverging clocks", checked+diverged, diverged)
}

func TestDiscretizerBins(t *testing.T) {
	d, err := NewSymmetricDiscretizer(0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Symbols() != 5 {
		t.Fatalf("Symbols() = %d, want 5", d.Symbols())
	}
	tests := []struct {
		v    float64
		want int
	}{
		{-10, 0}, {-2, 0}, {-1, 1}, {-0.5, 1}, {0, 2}, {0.5, 2}, {1, 3}, {2, 3}, {5, 4},
	}
	for _, tt := range tests {
		if got := d.Quantize(tt.v); got != tt.want {
			t.Errorf("Quantize(%v) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestDiscretizerMonotone(t *testing.T) {
	d, _ := NewSymmetricDiscretizer(0.5, 2)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return d.Quantize(a) <= d.Quantize(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiscretizerValidation(t *testing.T) {
	if _, err := NewDiscretizer(nil); err == nil {
		t.Error("empty edges accepted")
	}
	if _, err := NewDiscretizer([]float64{1, 1}); err == nil {
		t.Error("non-ascending edges accepted")
	}
	if _, err := NewSymmetricDiscretizer(); err == nil {
		t.Error("no thresholds accepted")
	}
	if _, err := NewSymmetricDiscretizer(-1); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestQuantizeAll(t *testing.T) {
	d, _ := NewSymmetricDiscretizer(1)
	got := d.QuantizeAll([]float64{-5, 0, 5})
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("QuantizeAll = %v", got)
	}
}
