// Package baselines implements the six state-of-the-art truth discovery
// methods the paper compares SSTD against (§V-A1) — TruthFinder, RTD,
// CATD, Invest, 3-Estimates and DynaTD. All are adapted to the paper's binary-claim social sensing setting: each report
// asserts a claim to be true (+1) or false (-1).
package baselines

import (
	"sort"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

// Vote is one source's aggregate stance on one claim within the data
// under consideration.
type Vote struct {
	Source socialsensing.SourceID
	Claim  socialsensing.ClaimID
	// Value is the asserted truth: True for agree, False for disagree.
	Value socialsensing.TruthValue
	// Weight reflects the evidence strength (e.g. |contribution score|
	// summed over the source's reports).
	Weight float64
}

// Dataset is the source-claim bipartite graph a batch truth discovery
// algorithm consumes.
type Dataset struct {
	Sources []socialsensing.SourceID
	Claims  []socialsensing.ClaimID
	Votes   []Vote

	bySource map[socialsensing.SourceID][]int
	byClaim  map[socialsensing.ClaimID][]int
}

// BuildDataset collapses raw reports into per-(source, claim) votes: each
// source's reports on a claim are summed by contribution score and the
// sign becomes the vote, the absolute value its weight. Reports with zero
// aggregate cancel out and produce no vote.
func BuildDataset(reports []socialsensing.Report) *Dataset {
	type key struct {
		s socialsensing.SourceID
		c socialsensing.ClaimID
	}
	agg := make(map[key]float64)
	for _, r := range reports {
		agg[key{r.Source, r.Claim}] += r.ContributionScore()
	}
	ds := &Dataset{}
	seenSource := make(map[socialsensing.SourceID]bool)
	seenClaim := make(map[socialsensing.ClaimID]bool)
	keys := make([]key, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].s != keys[j].s {
			return keys[i].s < keys[j].s
		}
		return keys[i].c < keys[j].c
	})
	for _, k := range keys {
		cs := agg[k]
		if cs == 0 {
			continue
		}
		v := Vote{Source: k.s, Claim: k.c, Weight: cs}
		if cs > 0 {
			v.Value = socialsensing.True
		} else {
			v.Value = socialsensing.False
			v.Weight = -cs
		}
		ds.Votes = append(ds.Votes, v)
		if !seenSource[k.s] {
			seenSource[k.s] = true
			ds.Sources = append(ds.Sources, k.s)
		}
		if !seenClaim[k.c] {
			seenClaim[k.c] = true
			ds.Claims = append(ds.Claims, k.c)
		}
	}
	ds.index()
	return ds
}

// index builds the adjacency maps.
func (ds *Dataset) index() {
	ds.bySource = make(map[socialsensing.SourceID][]int, len(ds.Sources))
	ds.byClaim = make(map[socialsensing.ClaimID][]int, len(ds.Claims))
	for i, v := range ds.Votes {
		ds.bySource[v.Source] = append(ds.bySource[v.Source], i)
		ds.byClaim[v.Claim] = append(ds.byClaim[v.Claim], i)
	}
}

// SourceVotes returns indices into Votes for the source.
func (ds *Dataset) SourceVotes(s socialsensing.SourceID) []int { return ds.bySource[s] }

// ClaimVotes returns indices into Votes for the claim.
func (ds *Dataset) ClaimVotes(c socialsensing.ClaimID) []int { return ds.byClaim[c] }

// Estimator is a batch truth discovery algorithm: given a dataset it
// assigns each claim a truth value.
type Estimator interface {
	// Name identifies the method in experiment output.
	Name() string
	// Estimate returns the estimated truth per claim.
	Estimate(ds *Dataset) map[socialsensing.ClaimID]socialsensing.TruthValue
}

// decide maps a real-valued claim score to a truth value, breaking the
// tie at zero toward False (absence of positive evidence).
func decide(score float64) socialsensing.TruthValue {
	if score > 0 {
		return socialsensing.True
	}
	return socialsensing.False
}
