package stream

import (
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/tracegen"
)

func smallTrace(t *testing.T) *socialsensing.Trace {
	t.Helper()
	g, err := tracegen.New(tracegen.ParisShooting(), 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := g.Generate(0.004)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSplitByIntervalConserves(t *testing.T) {
	tr := smallTrace(t)
	batches, err := SplitByInterval(tr, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, b := range batches {
		total += len(b.Reports)
		want := tr.Start.Add(time.Duration(i) * time.Hour)
		if !b.Start.Equal(want) {
			t.Fatalf("batch %d start = %v, want %v", i, b.Start, want)
		}
		for _, r := range b.Reports {
			if r.Timestamp.Before(b.Start) || !r.Timestamp.Before(b.Start.Add(time.Hour)) {
				// The final batch absorbs boundary stragglers.
				if i != len(batches)-1 {
					t.Fatalf("report at %v outside batch %d [%v, +1h)", r.Timestamp, i, b.Start)
				}
			}
		}
	}
	if total != len(tr.Reports) {
		t.Errorf("reports conserved: %d vs %d", total, len(tr.Reports))
	}
	if _, err := SplitByInterval(tr, 0); err == nil {
		t.Error("zero width accepted")
	}
}

func TestSplitNExactCount(t *testing.T) {
	tr := smallTrace(t)
	batches, err := SplitN(tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 100 {
		t.Fatalf("batches = %d, want 100", len(batches))
	}
	total := 0
	for _, b := range batches {
		total += len(b.Reports)
	}
	if total != len(tr.Reports) {
		t.Errorf("reports conserved: %d vs %d", total, len(tr.Reports))
	}
	if _, err := SplitN(tr, 0); err == nil {
		t.Error("SplitN(0) accepted")
	}
}

func TestRateStream(t *testing.T) {
	tr := smallTrace(t)
	const rate, secs = 5, 10
	batches, err := RateStream(tr, rate, secs*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != secs {
		t.Fatalf("batches = %d, want %d", len(batches), secs)
	}
	for i, b := range batches {
		if len(b.Reports) != rate {
			t.Fatalf("batch %d has %d reports, want %d", i, len(b.Reports), rate)
		}
		for j := 1; j < len(b.Reports); j++ {
			if b.Reports[j].Timestamp.Before(b.Reports[j-1].Timestamp) {
				t.Fatal("re-timestamped reports out of order")
			}
		}
	}
	if _, err := RateStream(tr, 0, time.Second); err == nil {
		t.Error("rate 0 accepted")
	}
	if _, err := RateStream(tr, 1, 0); err == nil {
		t.Error("duration 0 accepted")
	}
	if _, err := RateStream(tr, 1_000_000, time.Hour); err == nil {
		t.Error("oversize request accepted")
	}
}

func TestPrefix(t *testing.T) {
	tr := smallTrace(t)
	p := Prefix(tr, 100)
	if len(p.Reports) != 100 {
		t.Errorf("prefix reports = %d", len(p.Reports))
	}
	if len(p.Claims) != len(tr.Claims) || len(p.Sources) != len(tr.Sources) {
		t.Error("prefix dropped claims or sources")
	}
	big := Prefix(tr, 1<<30)
	if len(big.Reports) != len(tr.Reports) {
		t.Error("oversized prefix should clamp")
	}
}
