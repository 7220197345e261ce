package tracegen

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

func TestProfilesValid(t *testing.T) {
	for _, prof := range Profiles() {
		t.Run(prof.Name, func(t *testing.T) {
			if _, err := New(prof, 1); err != nil {
				t.Errorf("profile invalid: %v", err)
			}
		})
	}
}

func TestNewRejectsBadProfiles(t *testing.T) {
	base := BostonBombing()
	tests := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"no name", func(p *Profile) { p.Name = "" }},
		{"no duration", func(p *Profile) { p.Duration = 0 }},
		{"no claims", func(p *Profile) { p.NumClaims = 0 }},
		{"no reports", func(p *Profile) { p.TargetReports = 0 }},
		{"no topics", func(p *Profile) { p.Topics = nil }},
		{"bad source ratio", func(p *Profile) { p.SourcesPerReport = 1.5 }},
		{"reliability not summing", func(p *Profile) { p.Reliability[0].Frac += 0.5 }},
		{"negative band", func(p *Profile) { p.Reliability[0].Frac = -0.1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			prof := base
			prof.Reliability = append([]ReliabilityBand(nil), base.Reliability...)
			tt.mutate(&prof)
			if _, err := New(prof, 1); err == nil {
				t.Error("bad profile accepted")
			}
		})
	}
}

func TestGenerateShape(t *testing.T) {
	for _, prof := range Profiles() {
		t.Run(prof.Name, func(t *testing.T) {
			g, err := New(prof, 7)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := g.Generate(0.005)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
			want := int(float64(prof.TargetReports) * 0.005)
			if got := len(tr.Reports); got != want {
				t.Errorf("reports = %d, want %d", got, want)
			}
			ratio := float64(len(tr.Sources)) / float64(len(tr.Reports))
			if math.Abs(ratio-prof.SourcesPerReport) > 0.08 {
				t.Errorf("sources/reports = %.3f, want ~%.3f", ratio, prof.SourcesPerReport)
			}
			if len(tr.Claims) < 6 || len(tr.Claims) > prof.NumClaims {
				t.Errorf("claims = %d, want in [6, %d]", len(tr.Claims), prof.NumClaims)
			}
			for _, c := range tr.Claims {
				if len(tr.GroundTruth[c.ID]) == 0 {
					t.Errorf("claim %s has no ground truth", c.ID)
				}
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g1, _ := New(ParisShooting(), 11)
	g2, _ := New(ParisShooting(), 11)
	t1, err := g1.Generate(0.002)
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := g2.Generate(0.002)
	if len(t1.Reports) != len(t2.Reports) {
		t.Fatalf("lengths differ: %d vs %d", len(t1.Reports), len(t2.Reports))
	}
	for i := range t1.Reports {
		if t1.Reports[i] != t2.Reports[i] {
			t.Fatalf("report %d differs", i)
		}
	}
	// Different seed must differ.
	g3, _ := New(ParisShooting(), 12)
	t3, _ := g3.Generate(0.002)
	same := true
	for i := range t1.Reports {
		if i < len(t3.Reports) && t1.Reports[i] != t3.Reports[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateLongTail(t *testing.T) {
	g, _ := New(BostonBombing(), 5)
	tr, err := g.Generate(0.01)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[socialsensing.SourceID]int)
	for _, r := range tr.Reports {
		counts[r.Source]++
	}
	single, max := 0, 0
	for _, c := range counts {
		if c == 1 {
			single++
		}
		if c > max {
			max = c
		}
	}
	if frac := float64(single) / float64(len(counts)); frac < 0.7 {
		t.Errorf("singleton source fraction = %.2f, want >= 0.7 (long tail)", frac)
	}
	if max < 5 {
		t.Errorf("max source volume = %d, want heavy hitters", max)
	}
}

func TestGenerateAttitudesTrackTruth(t *testing.T) {
	// Majority stance should match ground truth for most (claim,
	// interval) cells, since most reliability mass is above 0.5.
	g, _ := New(BostonBombing(), 3)
	tr, err := g.Generate(0.01)
	if err != nil {
		t.Fatal(err)
	}
	agreeWithTruth, total := 0, 0
	for _, r := range tr.Reports {
		truth, ok := tr.TruthAt(r.Claim, r.Timestamp)
		if !ok {
			t.Fatalf("no ground truth for %s", r.Claim)
		}
		saysTrue := r.Attitude == socialsensing.Agree
		if saysTrue == (truth == socialsensing.True) {
			agreeWithTruth++
		}
		total++
	}
	frac := float64(agreeWithTruth) / float64(total)
	if frac < 0.6 || frac > 0.9 {
		t.Errorf("correct-report fraction = %.2f, want noisy majority in [0.6, 0.9]", frac)
	}
}

func TestGenerateTextConsistency(t *testing.T) {
	g, _ := New(ParisShooting(), 9)
	tr, err := g.Generate(0.004)
	if err != nil {
		t.Fatal(err)
	}
	var retweets, hedged int
	for _, r := range tr.Reports {
		if r.Text == "" {
			t.Fatal("report without text")
		}
		if strings.HasPrefix(r.Text, "RT @") {
			retweets++
			if r.Independence > 0.5 {
				t.Errorf("retweet with high independence %v", r.Independence)
			}
		}
		if r.Uncertainty > 0.55 {
			hedged++
		}
	}
	if retweets == 0 {
		t.Error("no retweets generated")
	}
	if hedged == 0 {
		t.Error("no hedged reports generated")
	}
}

func TestGenerateBurstsAroundFlips(t *testing.T) {
	prof := CollegeFootball()
	g, _ := New(prof, 21)
	tr, err := g.Generate(0.02)
	if err != nil {
		t.Fatal(err)
	}
	// Measure the mean per-minute report rate inside vs outside burst
	// windows for the most popular claim.
	claim := tr.Claims[0].ID
	flips := tr.GroundTruth[claim][1:] // transitions only
	if len(flips) == 0 {
		t.Skip("no flips for claim 0 under this seed")
	}
	inBurst := func(ts time.Time) bool {
		for _, f := range flips {
			if !ts.Before(f.Time) && ts.Before(f.Time.Add(prof.BurstWindow)) {
				return true
			}
		}
		return false
	}
	burstCount, quietCount := 0, 0
	for _, r := range tr.Reports {
		if r.Claim != claim {
			continue
		}
		if inBurst(r.Timestamp) {
			burstCount++
		} else {
			quietCount++
		}
	}
	burstMinutes := float64(len(flips)) * prof.BurstWindow.Minutes()
	quietMinutes := prof.Duration.Minutes() - burstMinutes
	burstRate := float64(burstCount) / burstMinutes
	quietRate := float64(quietCount) / quietMinutes
	if burstRate < 2*quietRate {
		t.Errorf("burst rate %.3f not clearly above quiet rate %.3f", burstRate, quietRate)
	}
}

func TestGenerateScaleErrors(t *testing.T) {
	g, _ := New(BostonBombing(), 1)
	if _, err := g.Generate(0); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := g.Generate(-1); err == nil {
		t.Error("negative scale accepted")
	}
}

func TestGenerateTinyScaleStillWorks(t *testing.T) {
	g, _ := New(BostonBombing(), 1)
	tr, err := g.Generate(1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Reports) < 10 {
		t.Errorf("tiny scale reports = %d, want >= 10 floor", len(tr.Reports))
	}
}

func TestSearchCum(t *testing.T) {
	cum := []float64{1, 3, 6, 10}
	tests := []struct {
		x    float64
		want int
	}{
		{0, 0}, {0.99, 0}, {1, 1}, {2.5, 1}, {5.9, 2}, {9.99, 3}, {10, 3}, {99, 3},
	}
	for _, tt := range tests {
		if got := searchCum(cum, tt.x); got != tt.want {
			t.Errorf("searchCum(%v) = %d, want %d", tt.x, got, tt.want)
		}
	}
}

func TestPoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, lambda = 5000, 2.5
	sum := 0
	for i := 0; i < n; i++ {
		sum += poisson(rng, lambda)
	}
	mean := float64(sum) / n
	if math.Abs(mean-lambda) > 0.15 {
		t.Errorf("poisson mean = %.3f, want ~%.1f", mean, lambda)
	}
	if got := poisson(rng, 0); got != 0 {
		t.Errorf("poisson(0) = %d", got)
	}
}

// TestProfileByName: each paper trace is found under its short name and
// under its Profile.Name; any other name is an error that lists the
// accepted ones.
func TestProfileByName(t *testing.T) {
	for _, tt := range []struct{ name, want string }{
		{"boston", "boston-bombing"},
		{"boston-bombing", "boston-bombing"},
		{"paris", "paris-shooting"},
		{"paris-shooting", "paris-shooting"},
		{"football", "college-football"},
		{"college-football", "college-football"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			prof, err := ProfileByName(tt.name)
			if err != nil {
				t.Fatal(err)
			}
			if prof.Name != tt.want {
				t.Errorf("ProfileByName(%q).Name = %q, want %q", tt.name, prof.Name, tt.want)
			}
		})
	}
	t.Run("unknown", func(t *testing.T) {
		_, err := ProfileByName("Boston")
		if err == nil || !strings.Contains(err.Error(), "want boston, paris or football") {
			t.Errorf("ProfileByName(Boston) error = %v", err)
		}
	})
}
