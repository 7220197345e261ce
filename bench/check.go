package main

import (
	"fmt"

	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/socialsensing"
)

// minAgreement is the share of intervals a cluster-decoded timeline must
// share with the single-node reference. It is not 1: the cluster folds
// partial sums in a different order than Engine.Ingest, so a float that
// lands exactly on a discretizer edge may fall on the other side.
const minAgreement = 0.999

// claimRef is what one claim's decoded timeline is checked against.
type claimRef struct {
	// reference is Engine.DecodeClaim on the same reports.
	reference []socialsensing.TruthValue
	// truth is the trace's ground truth at each interval's midpoint.
	truth []socialsensing.TruthValue
	// first is the interval of the claim's first report; accuracy is
	// scored from there on, where the claim is actually observed.
	first int
}

// buildRefs decodes every claim on a single-node engine and samples the
// ground truth on the same interval grid.
func buildRefs(w workload, in *inputs) ([]claimRef, error) {
	cfg := core.DefaultConfig(in.trace.Start)
	cfg.ACS = w.acs()
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	refs := make([]claimRef, len(in.jobs))
	for i, j := range in.jobs {
		if err := eng.IngestAll(j.reports); err != nil {
			return nil, err
		}
		est, err := eng.DecodeClaim(j.claim)
		if err != nil {
			return nil, fmt.Errorf("reference decode of %s: %w", j.claim, err)
		}
		ref := claimRef{
			reference: make([]socialsensing.TruthValue, len(est)),
			truth:     make([]socialsensing.TruthValue, len(est)),
			first:     int(j.reports[0].Timestamp.Sub(in.trace.Start) / w.interval),
		}
		for t, e := range est {
			ref.reference[t] = e.Value
			ref.truth[t], _ = in.trace.TruthAt(j.claim, e.Start.Add(w.interval/2))
		}
		refs[i] = ref
	}
	return refs, nil
}

// checker verifies decoded timelines and accumulates the accuracy score.
// It is used from one goroutine.
type checker struct {
	refs []claimRef
	// seen holds the digest of the first timeline decoded for each claim;
	// every repeat within the run must reproduce it.
	seen []uint64

	matched, scored int64
}

func newChecker(refs []claimRef) *checker {
	return &checker{refs: refs, seen: make([]uint64, len(refs))}
}

// check verifies one job's estimates against claim idx's reference and
// returns an error describing the first violated property.
func (c *checker) check(idx int, est []core.Estimate) error {
	ref := c.refs[idx]
	if len(est) != len(ref.reference) {
		return fmt.Errorf("claim %d: %d intervals decoded, reference has %d", idx, len(est), len(ref.reference))
	}
	digest := uint64(fnvOffset)
	agree, matched := 0, 0
	for t, e := range est {
		digest = fnvByte(digest, byte(e.Value))
		if e.Value == ref.reference[t] {
			agree++
		}
		if t >= ref.first && e.Value == ref.truth[t] {
			matched++
		}
	}
	if float64(agree) < minAgreement*float64(len(est)) {
		return fmt.Errorf("claim %d: only %d/%d intervals agree with the single-node reference", idx, agree, len(est))
	}
	digest |= 1 // never the zero "unseen" marker
	if c.seen[idx] == 0 {
		c.seen[idx] = digest
	} else if c.seen[idx] != digest {
		return fmt.Errorf("claim %d: repeat decoded a different timeline", idx)
	}
	c.matched += int64(matched)
	c.scored += int64(len(est) - ref.first)
	return nil
}

func (c *checker) accuracy() float64 { return ratio(float64(c.matched), float64(c.scored)) }
