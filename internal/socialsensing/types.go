// Package socialsensing defines the shared data model for social sensing
// truth discovery: sources, claims, reports and traces.
//
// The model follows the problem formulation of Zhang et al., "Towards
// Scalable and Dynamic Social Sensing Using A Distributed Computing
// Framework" (ICDCS 2017): M sources report on N binary claims whose ground
// truth evolves over time.
package socialsensing

import (
	"fmt"
	"time"
)

// SourceID identifies a data source (e.g. a Twitter user).
type SourceID string

// ClaimID identifies a claim (a statement about the physical world derived
// from clustered reports).
type ClaimID string

// TruthValue is the binary truth state of a claim at a time instant.
type TruthValue int

// Truth values. The paper restricts claims to binary truth states: a claim
// is either true or false at any instant, never both.
const (
	False TruthValue = iota
	True
)

// String returns "true" or "false".
func (v TruthValue) String() string {
	if v == True {
		return "true"
	}
	return "false"
}

// Attitude is the stance a report takes toward its claim (Definition 1 in
// the paper): +1 the source believes the claim is true, -1 the source
// believes it is false, 0 no stance.
type Attitude int

// Attitude scores per Definition 1.
const (
	Disagree Attitude = -1
	NoReport Attitude = 0
	Agree    Attitude = 1
)

// Report is a single observation R(t)_{i,u} made by source i on claim u at
// time t, together with the semantic scores needed to compute its
// contribution score (Eq. 1).
type Report struct {
	Source    SourceID
	Claim     ClaimID
	Timestamp time.Time

	// Text is the raw content the report was derived from (a tweet).
	// It may be empty when reports are constructed directly.
	Text string

	// Attitude is rho in Eq. 1: whether the source asserts the claim to
	// be true (+1), false (-1), or takes no stance (0).
	Attitude Attitude

	// Uncertainty is kappa in Eq. 1, in (0,1): how hedged/uncertain the
	// report is. Higher means more uncertain.
	Uncertainty float64

	// Independence is eta in Eq. 1, in (0,1): how likely the report was
	// made independently rather than copied (retweeted). Higher means
	// more independent.
	Independence float64
}

// ContributionScore returns CS(t)_{i,u} = rho * (1-kappa) * eta (Eq. 1).
func (r Report) ContributionScore() float64 {
	return float64(r.Attitude) * (1 - r.Uncertainty) * r.Independence
}

// Claim is a statement whose truth value evolves over time, e.g. "Notre
// Dame is leading the football game".
type Claim struct {
	ID ClaimID

	// Topic is a short human-readable description.
	Topic string

	// Created is the time the claim was first observed.
	Created time.Time
}

// Source is a participant that files reports. Reliability is only used by
// trace generators and evaluation; truth discovery algorithms must not read
// it (the whole point of truth discovery is that reliability is unknown).
type Source struct {
	ID SourceID

	// Reliability in [0,1] is the generator-side probability that this
	// source reports the current ground truth correctly. Hidden from
	// algorithms.
	Reliability float64
}

// GroundTruthPoint is the labelled truth of a claim at an instant.
type GroundTruthPoint struct {
	Claim ClaimID
	Time  time.Time
	Value TruthValue
}

// Trace is a complete social sensing dataset: reports ordered by time plus
// ground truth labels for evaluation.
type Trace struct {
	Name    string
	Start   time.Time
	End     time.Time
	Sources []Source
	Claims  []Claim

	// Reports are sorted by Timestamp ascending.
	Reports []Report

	// GroundTruth maps each claim to its piecewise-constant truth
	// timeline, sorted by Time ascending. The truth of claim c at time t
	// is the Value of the latest point with Time <= t.
	GroundTruth map[ClaimID][]GroundTruthPoint
}

// Duration returns the time span covered by the trace.
func (tr *Trace) Duration() time.Duration { return tr.End.Sub(tr.Start) }

// TruthAt returns the ground truth of claim c at time t and whether a label
// exists. Points before the first label return the first label's value.
func (tr *Trace) TruthAt(c ClaimID, t time.Time) (TruthValue, bool) {
	points := tr.GroundTruth[c]
	if len(points) == 0 {
		return False, false
	}
	v := points[0].Value
	for _, p := range points {
		if p.Time.After(t) {
			break
		}
		v = p.Value
	}
	return v, true
}

// ReportsByClaim groups the trace's reports per claim, preserving time
// order. The returned slices alias the trace's report storage.
func (tr *Trace) ReportsByClaim() map[ClaimID][]Report {
	out := make(map[ClaimID][]Report, len(tr.Claims))
	for _, r := range tr.Reports {
		out[r.Claim] = append(out[r.Claim], r)
	}
	return out
}

// inUnit reports whether x lies in [0,1]. Written so that NaN, for which
// every comparison is false, is out of range.
func inUnit(x float64) bool { return x >= 0 && x <= 1 }

// Validate performs basic sanity checks on the trace and returns a
// descriptive error for the first violation found.
func (tr *Trace) Validate() error {
	if tr.Name == "" {
		return fmt.Errorf("trace has no name")
	}
	if tr.End.Before(tr.Start) {
		return fmt.Errorf("trace %q: end %v before start %v", tr.Name, tr.End, tr.Start)
	}
	claims := make(map[ClaimID]bool, len(tr.Claims))
	for _, c := range tr.Claims {
		if claims[c.ID] {
			return fmt.Errorf("trace %q: duplicate claim %q", tr.Name, c.ID)
		}
		claims[c.ID] = true
	}
	sources := make(map[SourceID]bool, len(tr.Sources))
	for _, s := range tr.Sources {
		if sources[s.ID] {
			return fmt.Errorf("trace %q: duplicate source %q", tr.Name, s.ID)
		}
		if !inUnit(s.Reliability) {
			return fmt.Errorf("trace %q: source %q reliability %v out of [0,1]", tr.Name, s.ID, s.Reliability)
		}
		sources[s.ID] = true
	}
	var prev time.Time
	for i, r := range tr.Reports {
		if !claims[r.Claim] {
			return fmt.Errorf("trace %q: report %d references unknown claim %q", tr.Name, i, r.Claim)
		}
		if !sources[r.Source] {
			return fmt.Errorf("trace %q: report %d references unknown source %q", tr.Name, i, r.Source)
		}
		if r.Timestamp.Before(prev) {
			return fmt.Errorf("trace %q: report %d out of time order", tr.Name, i)
		}
		if !inUnit(r.Uncertainty) {
			return fmt.Errorf("trace %q: report %d uncertainty %v out of [0,1]", tr.Name, i, r.Uncertainty)
		}
		if !inUnit(r.Independence) {
			return fmt.Errorf("trace %q: report %d independence %v out of [0,1]", tr.Name, i, r.Independence)
		}
		if r.Attitude < Disagree || r.Attitude > Agree {
			return fmt.Errorf("trace %q: report %d attitude %d invalid", tr.Name, i, r.Attitude)
		}
		prev = r.Timestamp
	}
	return nil
}

// Stats summarizes a trace in the style of Table II of the paper.
type Stats struct {
	Name     string
	Reports  int
	Sources  int
	Claims   int
	Duration time.Duration
}

// Summarize computes the Table II statistics for the trace.
func (tr *Trace) Summarize() Stats {
	return Stats{
		Name:     tr.Name,
		Reports:  len(tr.Reports),
		Sources:  len(tr.Sources),
		Claims:   len(tr.Claims),
		Duration: tr.Duration(),
	}
}
