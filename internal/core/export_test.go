package core

import (
	"fmt"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

// reportCount returns the total number of reports e has ingested.
func reportCount(e *Engine) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := 0
	for _, st := range e.claims {
		n += st.acc.Count()
	}
	return n
}

// TrainedModelFor returns the claim's current fitted parameter set λ_u,
// training it if needed. The returned model is shared; treat it as
// read-only.
func (e *Engine) TrainedModelFor(id socialsensing.ClaimID) (*TrainedModel, error) {
	e.mu.RLock()
	st, ok := e.claims[id]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown claim %q", id)
	}
	sc := getScratch()
	defer putScratch(sc)
	model, series, _, err := e.claimModel(st, sc)
	if err != nil {
		return nil, err
	}
	if len(series) == 0 {
		return nil, fmt.Errorf("core: claim %q has no observations", id)
	}
	return model, nil
}

// Quantize maps a single value to its bin.
func (d *Discretizer) Quantize(v float64) int { return bin(d.edges, v) }
