package core

import (
	"fmt"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

// Posterior returns, for each interval of the ACS series, the smoothed
// probability that the claim is true — P(state = True | full sequence) via
// forward-backward — rather than the hard Viterbi decision. Posteriors are
// what downstream consumers that combine evidence across claims (see the
// claimdep package) or need calibrated confidence work with. An empty
// series yields nil.
func (d *Decoder) Posterior(acs []float64) ([]float64, error) {
	if len(acs) == 0 {
		return nil, nil
	}
	sc := getScratch()
	defer putScratch(sc)
	tm, _, err := d.TrainWarmScratch(sc, acs, nil)
	if err != nil {
		return nil, err
	}
	gamma, err := tm.Discrete.PosteriorWS(sc.ws, sc.obs, nil)
	if err != nil {
		return nil, fmt.Errorf("posterior: %w", err)
	}
	// Row TrueState of the lattice is the claim's posterior of being true.
	T := len(acs)
	return gamma[tm.TrueState*T : (tm.TrueState+1)*T : (tm.TrueState+1)*T], nil
}

// PosteriorClaim computes the smoothed truth posterior for one claim's
// current ACS series.
func (e *Engine) PosteriorClaim(id socialsensing.ClaimID) ([]float64, error) {
	e.mu.RLock()
	st, ok := e.claims[id]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown claim %q", id)
	}
	return e.decoder.Posterior(st.acc.Series())
}
