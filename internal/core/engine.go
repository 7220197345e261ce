package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/socialsensing"
)

// Estimate is the decoded truth of a claim over one interval. A claim's
// estimates are a slice indexed by interval; the caller knows the claim.
type Estimate struct {
	// Start is the wall-clock start of the interval.
	Start time.Time
	Value socialsensing.TruthValue
}

// Config parameterizes an Engine.
type Config struct {
	ACS     ACSConfig
	Decoder DecoderConfig
	// Origin anchors the interval grid. Required.
	Origin time.Time
	// RetrainGrowth controls per-claim model caching: a claim's HMM is
	// retrained only when its report count has grown by this fraction
	// since the cached model was fitted (Viterbi still runs on the
	// current series every decode). Zero retrains on every decode — the
	// exact per-decode EM of the paper; 0.2 is a good streaming setting
	// (retrain after 20% more evidence).
	RetrainGrowth float64
	// Metrics enables engine telemetry (ingest counters, ACS build /
	// train / Viterbi latency histograms). Nil disables it at the cost
	// of one nil check per event.
	Metrics *obs.Registry
}

// DefaultConfig returns the paper's default SSTD setup anchored at origin.
func DefaultConfig(origin time.Time) Config {
	return Config{
		ACS:     DefaultACSConfig(),
		Decoder: DefaultDecoderConfig(),
		Origin:  origin,
	}
}

// Engine is the streaming SSTD truth discovery engine. Reports stream in
// via Ingest; DecodeAll (or DecodeClaim, which is what a distributed TD
// job runs) produces per-interval truth estimates. Engine is safe for
// concurrent use.
type Engine struct {
	cfg     Config
	decoder *Decoder

	// Telemetry handles; all nil when cfg.Metrics is nil.
	cIngested   *obs.Counter
	cDecodes    *obs.Counter
	cTrains     *obs.Counter
	cTrainsWarm *obs.Counter
	cWarmSaved  *obs.Counter
	gClaims     *obs.Gauge
	hACS        *obs.Histogram
	hTrain      *obs.Histogram
	hViterbi    *obs.Histogram

	mu     sync.RWMutex
	claims map[socialsensing.ClaimID]*claimState
	// starts is the interval starts estimates copy from, grown on the
	// grid every claim shares.
	starts []time.Time
}

// claimState is one claim's accumulator plus its cached trained model.
type claimState struct {
	acc *ACSAccumulator
	// model is the cached λ_u; trainedCount is the report count it was
	// fitted at.
	model        *TrainedModel
	trainedCount int
	// coldIters is the EM iteration count of the claim's last cold fit,
	// the baseline the warm-start savings counter measures against.
	coldIters int
}

// NewEngine builds an engine from cfg.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Origin.IsZero() {
		return nil, fmt.Errorf("core: engine config needs an origin time")
	}
	if err := cfg.ACS.validate(); err != nil {
		return nil, err
	}
	dec, err := NewDecoder(cfg.Decoder)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		decoder: dec,
		claims:  make(map[socialsensing.ClaimID]*claimState),
	}
	if reg := cfg.Metrics; reg != nil {
		e.cIngested = reg.Counter("core_reports_ingested_total")
		e.cDecodes = reg.Counter("core_decodes_total")
		e.cTrains = reg.Counter("core_trains_total")
		e.cTrainsWarm = reg.Counter("core_trains_warm_total")
		e.cWarmSaved = reg.Counter("hmm_warmstart_iterations_saved_total")
		e.gClaims = reg.Gauge("core_claims")
		e.hACS = reg.Histogram("core_acs_build_ms", nil)
		e.hTrain = reg.Histogram("core_train_ms", nil)
		e.hViterbi = reg.Histogram("core_viterbi_ms", nil)
	}
	return e, nil
}

// Ingest adds one report to its claim's ACS accumulator, creating the
// per-claim state on first sight (the paper dynamically spawns a TD job
// when a new claim appears). A report whose score FixedScore refuses is an
// error naming the claim and the report's position among the claim's
// reports, and leaves the engine as it was.
func (e *Engine) Ingest(r socialsensing.Report) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.claims[r.Claim]
	if !ok {
		acc, err := NewACSAccumulator(e.cfg.ACS, e.cfg.Origin)
		if err != nil {
			return err
		}
		st = &claimState{acc: acc}
	}
	if err := st.acc.Add(r); err != nil {
		return fmt.Errorf("core: claim %s report %d: %w", r.Claim, st.acc.Count(), err)
	}
	if !ok {
		e.claims[r.Claim] = st
		e.gClaims.SetInt(len(e.claims))
	}
	e.cIngested.Inc()
	return nil
}

// IngestAll adds a batch of reports.
func (e *Engine) IngestAll(rs []socialsensing.Report) error {
	for _, r := range rs {
		if err := e.Ingest(r); err != nil {
			return err
		}
	}
	return nil
}

// Claims returns the claim IDs seen so far, sorted.
func (e *Engine) Claims() []socialsensing.ClaimID {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]socialsensing.ClaimID, 0, len(e.claims))
	for id := range e.claims {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ACSSeries returns the current ACS sequence for a claim (nil when the
// claim is unknown).
func (e *Engine) ACSSeries(id socialsensing.ClaimID) []float64 {
	e.mu.RLock()
	st, ok := e.claims[id]
	e.mu.RUnlock()
	if !ok {
		return nil
	}
	return st.acc.Series()
}

// DecodeClaim runs the full TD job for one claim: materialize the ACS
// sequence, train (or reuse) the claim's HMM and Viterbi-decode its truth
// timeline. With RetrainGrowth > 0 the cached model is reused until the
// claim's evidence has grown by that fraction.
func (e *Engine) DecodeClaim(id socialsensing.ClaimID) ([]Estimate, error) {
	sc := getScratch()
	defer putScratch(sc)
	return e.DecodeClaimInto(sc, id, nil)
}

// DecodeClaimInto is DecodeClaim on the caller's scratch buffers, writing
// the estimates into dst (grown only when too small; nil for a fresh one).
// On the steady-state path — cached model still fresh, buffers warmed — it
// performs zero heap allocations, which is what bounds the per-decode tail
// latency of a long-running TD worker.
func (e *Engine) DecodeClaimInto(sc *DecodeScratch, id socialsensing.ClaimID, dst []Estimate) ([]Estimate, error) {
	e.mu.RLock()
	st, ok := e.claims[id]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown claim %q", id)
	}
	model, series, fitted, err := e.claimModel(st, sc)
	if err != nil {
		return nil, fmt.Errorf("claim %q: %w", id, err)
	}
	if len(series) == 0 {
		return dst[:0], nil
	}
	viterbiStart := time.Now()
	truth, err := e.decoder.decodeScratch(sc, model, series, fitted)
	e.hViterbi.ObserveDuration(time.Since(viterbiStart))
	e.cDecodes.Inc()
	if err != nil {
		return nil, fmt.Errorf("claim %q: %w", id, err)
	}
	dst = slices.Grow(dst[:0], len(truth))[:len(truth)]
	e.mu.Lock()
	starts := st.acc.grid.Starts(e.starts, len(truth))
	e.starts = starts
	e.mu.Unlock()
	for t, v := range truth {
		dst[t] = Estimate{Start: starts[t], Value: v}
	}
	return dst, nil
}

// claimModel returns the claim's trained model and the ACS series the
// cache decision was made against, refitting when the cache is cold or
// stale; fitted says it refit, which left the series quantized in sc.
// With warm starting enabled, a stale cache entry still serves as the EM
// seed for its own replacement.
func (e *Engine) claimModel(st *claimState, sc *DecodeScratch) (*TrainedModel, []float64, bool, error) {
	e.mu.Lock()
	count := st.acc.Count()
	cached := st.model
	coldIters := st.coldIters
	stale := cached == nil ||
		e.cfg.RetrainGrowth <= 0 ||
		float64(count) >= float64(st.trainedCount)*(1+e.cfg.RetrainGrowth)
	acsStart := time.Now()
	sc.series = Window(sc.series, st.acc.sums, e.cfg.ACS.WindowIntervals)
	series := sc.series
	e.mu.Unlock()
	e.hACS.ObserveDuration(time.Since(acsStart))
	if len(series) == 0 {
		return nil, nil, false, nil
	}
	if !stale {
		return cached, series, false, nil
	}
	var prev *TrainedModel
	if e.cfg.Decoder.Train.WarmStart {
		prev = cached
	}
	trainStart := time.Now()
	model, res, err := e.decoder.TrainWarmScratch(sc, series, prev)
	e.hTrain.ObserveDuration(time.Since(trainStart))
	e.cTrains.Inc()
	if err != nil {
		return nil, nil, false, err
	}
	if res.WarmStarted {
		e.cTrainsWarm.Inc()
		if saved := coldIters - res.Iterations; saved > 0 {
			e.cWarmSaved.Add(int64(saved))
		}
	}
	e.mu.Lock()
	st.model = model
	st.trainedCount = count
	if !res.WarmStarted {
		st.coldIters = res.Iterations
	}
	e.mu.Unlock()
	return model, series, true, nil
}

// DecodeAll decodes every claim and returns the estimates grouped by
// claim.
func (e *Engine) DecodeAll() (map[socialsensing.ClaimID][]Estimate, error) {
	ids := e.Claims()
	out := make(map[socialsensing.ClaimID][]Estimate, len(ids))
	for _, id := range ids {
		est, err := e.DecodeClaim(id)
		if err != nil {
			return nil, err
		}
		out[id] = est
	}
	return out, nil
}

// TruthAt evaluates a decoded estimate timeline at an arbitrary time:
// the value of the latest interval starting at or before t. Times before
// the first interval report the first estimate.
func TruthAt(estimates []Estimate, t time.Time) (socialsensing.TruthValue, bool) {
	if len(estimates) == 0 {
		return socialsensing.False, false
	}
	v := estimates[0].Value
	for _, e := range estimates {
		if e.Start.After(t) {
			break
		}
		v = e.Value
	}
	return v, true
}
