// Package tracegen generates synthetic social sensing traces with the
// statistical shape of the paper's three Twitter datasets (Table II):
// Boston Bombing, Paris (Charlie Hebdo) Shooting and College Football.
// Since the original traces are proprietary Twitter data, the generator
// reproduces the distributions truth discovery is sensitive to —
// long-tailed source participation, mixed source reliability with
// malicious cliques, evolving per-claim ground truth, retweet cascades,
// hedged language and bursty arrivals — as documented in DESIGN.md.
package tracegen

import (
	"fmt"
	"time"
)

// ReliabilityBand is one component of the source reliability mixture.
type ReliabilityBand struct {
	// Frac is the fraction of sources in this band.
	Frac float64
	// Mean and Spread define a uniform reliability range
	// [Mean-Spread, Mean+Spread] clamped to [0.02, 0.98].
	Mean, Spread float64
}

// Profile describes one event to synthesize.
type Profile struct {
	Name     string
	Start    time.Time
	Duration time.Duration

	// NumClaims is how many distinct claims (topics) the event produces.
	NumClaims int
	// TargetReports is the report volume at scale 1.0 (Table II).
	TargetReports int
	// SourcesPerReport approximates |sources| / |reports| (Table II shows
	// ~0.86-0.96: most sources tweet once).
	SourcesPerReport float64
	// HeavySourcePool is the number of recurring high-volume sources
	// (news accounts, superfans) that produce the non-tail reports.
	HeavySourcePool int

	// Reliability is the source reliability mixture; fractions must sum
	// to 1.
	Reliability []ReliabilityBand

	// FlipsPerClaim is the mean number of ground-truth transitions per
	// claim over the event (dynamic truth).
	FlipsPerClaim float64
	// BurstFactor multiplies the report rate in the BurstWindow after a
	// truth transition (the "touchdown spike").
	BurstFactor float64
	// BurstWindow is how long a post-transition burst lasts.
	BurstWindow time.Duration

	// RetweetProb is the probability a report is a retweet of a recent
	// report on the same claim.
	RetweetProb float64
	// HedgeProb is the probability a report uses hedged language.
	HedgeProb float64

	// Keywords are the event search keywords (Table II).
	Keywords []string
	// Topics are claim topic templates; claims cycle through them.
	Topics []string

	// CorrelationGroupSize, when > 1, groups consecutive claims into
	// blocks whose ground truths are correlated: each block member either
	// copies or mirrors (anti-correlates with) the block leader's truth
	// timeline. Zero or one keeps all claims independent (the paper's
	// §II assumption; the grouped mode exercises the claim-dependency
	// extension of §VII).
	CorrelationGroupSize int
	// AntiCorrelationProb is the probability a grouped claim mirrors
	// rather than copies its leader. Default 0 (copy).
	AntiCorrelationProb float64
}

// BostonBombing returns the profile shaped after the 2013 Boston Marathon
// bombing trace: 4 days, ~554k reports, ~494k sources.
func BostonBombing() Profile {
	return Profile{
		Name:             "boston-bombing",
		Start:            time.Date(2013, 4, 15, 14, 49, 0, 0, time.UTC),
		Duration:         4 * 24 * time.Hour,
		NumClaims:        40,
		TargetReports:    553_609,
		SourcesPerReport: 0.892,
		HeavySourcePool:  4_000,
		Reliability: []ReliabilityBand{
			{Frac: 0.30, Mean: 0.90, Spread: 0.08},
			{Frac: 0.50, Mean: 0.70, Spread: 0.15},
			{Frac: 0.12, Mean: 0.50, Spread: 0.10},
			{Frac: 0.08, Mean: 0.15, Spread: 0.10}, // rumor spreaders
		},
		FlipsPerClaim: 1.6,
		BurstFactor:   8,
		BurstWindow:   20 * time.Minute,
		RetweetProb:   0.38,
		HedgeProb:     0.25,
		Keywords:      []string{"boston", "marathon", "bombing", "attack"},
		Topics: []string{
			"explosion at the marathon finish line",
			"bomb threat at the jfk library",
			"suspect spotted near campus",
			"an arrest has been made",
			"third device found at the scene",
			"bridge closed by police",
			"cell service shut down in the city",
			"additional casualties reported downtown",
		},
	}
}

// ParisShooting returns the profile shaped after the 2015 Charlie Hebdo
// shooting trace: 3 days, ~254k reports, ~218k sources.
func ParisShooting() Profile {
	return Profile{
		Name:             "paris-shooting",
		Start:            time.Date(2015, 1, 7, 11, 30, 0, 0, time.UTC),
		Duration:         3 * 24 * time.Hour,
		NumClaims:        32,
		TargetReports:    253_798,
		SourcesPerReport: 0.858,
		HeavySourcePool:  3_000,
		Reliability: []ReliabilityBand{
			{Frac: 0.32, Mean: 0.88, Spread: 0.08},
			{Frac: 0.48, Mean: 0.68, Spread: 0.15},
			{Frac: 0.12, Mean: 0.50, Spread: 0.10},
			{Frac: 0.08, Mean: 0.18, Spread: 0.10},
		},
		FlipsPerClaim: 1.8,
		BurstFactor:   7,
		BurstWindow:   25 * time.Minute,
		RetweetProb:   0.40,
		HedgeProb:     0.28,
		Keywords:      []string{"paris", "shooting", "charlie", "hebdo"},
		Topics: []string{
			"shots fired at the charlie hebdo office",
			"suspects fled in a getaway car",
			"hostages taken at the market",
			"police raid underway in the north",
			"second shooter still at large",
			"the suspects have been located",
			"metro station closed by police",
			"press conference announced by officials",
		},
	}
}

// CollegeFootball returns the profile shaped after the Sept 2016 college
// football weekend trace: 3 days, ~429k reports, ~414k sources, very
// frequent truth changes (scores) with sharp touchdown bursts.
func CollegeFootball() Profile {
	return Profile{
		Name:             "college-football",
		Start:            time.Date(2016, 9, 30, 16, 0, 0, 0, time.UTC),
		Duration:         3 * 24 * time.Hour,
		NumClaims:        25, // five games x five claim types
		TargetReports:    429_019,
		SourcesPerReport: 0.964,
		HeavySourcePool:  2_000,
		Reliability: []ReliabilityBand{
			{Frac: 0.25, Mean: 0.92, Spread: 0.05},
			{Frac: 0.55, Mean: 0.72, Spread: 0.15},
			{Frac: 0.15, Mean: 0.55, Spread: 0.12},
			{Frac: 0.05, Mean: 0.25, Spread: 0.12}, // trolls
		},
		FlipsPerClaim: 6, // scores change often
		BurstFactor:   12,
		BurstWindow:   6 * time.Minute,
		RetweetProb:   0.30,
		HedgeProb:     0.18,
		Keywords:      []string{"football", "touchdown", "irish", "buckeyes"},
		Topics: []string{
			"notre dame is leading the game",
			"the score just changed",
			"the buckeyes are ahead",
			"the game is tied",
			"the quarterback left with an injury",
		},
	}
}

// Profiles returns the three paper traces in evaluation order.
func Profiles() []Profile {
	return []Profile{BostonBombing(), ParisShooting(), CollegeFootball()}
}

// ProfileByName looks a paper trace up by its short name (boston, paris,
// football) or its Profile.Name (boston-bombing, ...).
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "boston", "boston-bombing":
		return BostonBombing(), nil
	case "paris", "paris-shooting":
		return ParisShooting(), nil
	case "football", "college-football":
		return CollegeFootball(), nil
	}
	return Profile{}, fmt.Errorf("tracegen: unknown trace %q (want boston, paris or football)", name)
}
