package core

import (
	"fmt"
	"slices"

	"github.com/social-sensing/sstd/internal/hmm"
	"github.com/social-sensing/sstd/internal/socialsensing"
)

// DecoderConfig parameterizes the per-claim HMM truth decoder.
type DecoderConfig struct {
	// Thresholds defines the symmetric discretizer bins that quantize
	// ACS values into the HMM's symbols. Default (0.5, 2).
	Thresholds []float64
	// Train controls Baum-Welch.
	Train hmm.TrainConfig
}

// DefaultDecoderConfig returns the paper's discrete-emission setup. The
// default training regime fits transitions and the initial distribution by
// EM while keeping the informative emission prior frozen: with one short
// ACS sequence per claim, full emission re-estimation drifts the hidden
// state semantics and measurably hurts decode accuracy (EXPERIMENTS.md).
func DefaultDecoderConfig() DecoderConfig {
	train := hmm.DefaultTrainConfig()
	train.FreezeEmissions = true
	return DecoderConfig{
		Thresholds: []float64{0.5, 2},
		Train:      train,
	}
}

// Decoder turns one claim's ACS sequence into an estimated truth sequence.
// The two hidden states are the claim being False (state 0) and True
// (state 1); emissions are initialized with an informative prior — the
// True state skews toward positive ACS, the False state toward negative —
// and then refined by unsupervised EM (Eq. 5), which keeps the state
// semantics anchored while adapting to each claim's evidence level.
type Decoder struct {
	cfg  DecoderConfig
	disc *Discretizer
}

// NewDecoder validates the configuration and builds a decoder.
func NewDecoder(cfg DecoderConfig) (*Decoder, error) {
	th := cfg.Thresholds
	if len(th) == 0 {
		th = []float64{0.5, 2}
	}
	disc, err := NewSymmetricDiscretizer(th...)
	if err != nil {
		return nil, err
	}
	return &Decoder{cfg: cfg, disc: disc}, nil
}

// TrainedModel is a fitted per-claim parameter set λ_u (Eq. 5) with its
// state semantics resolved. Models can be trained offline, serialized
// (the HMM marshals to JSON) and reused across decodes — the paper trains
// offline and decodes online, and the Engine caches these per claim.
type TrainedModel struct {
	Discrete *hmm.Discrete `json:"discrete,omitempty"`
	// TrueState is the hidden state index meaning "claim is true".
	TrueState int `json:"trueState"`
}

// Decode estimates the truth value of the claim at every interval of the
// ACS series. It trains a fresh 2-state HMM on the sequence and Viterbi-
// decodes it: DecodeInto on a pooled scratch, the result copied out. An
// empty series yields an empty result.
func (d *Decoder) Decode(acs []float64) ([]socialsensing.TruthValue, error) {
	sc := getScratch()
	defer putScratch(sc)
	truth, err := d.DecodeInto(sc, acs)
	return slices.Clone(truth), err
}

// TrainWarmScratch fits a claim model on the ACS series with the caller's
// scratch buffers, seeding EM from prev — a model previously fitted to a
// prefix of the same stream — instead of the uniform informative prior
// when prev is non-nil. When the stream has only grown a little, the
// previous fit is already near the EM fixed point and training converges
// in one or two iterations instead of tens. prev is cloned, not mutated
// (cached models are shared). A prev over another alphabet, and a warm
// fit that fails to converge within the iteration budget, fall back to
// the usual cold start, so warm starting never degrades the fitted model.
// The returned TrainResult reports the iterations actually spent and
// whether the warm seed was used (WarmStarted).
func (d *Decoder) TrainWarmScratch(sc *DecodeScratch, acs []float64, prev *TrainedModel) (*TrainedModel, hmm.TrainResult, error) {
	if len(acs) == 0 {
		return nil, hmm.TrainResult{}, fmt.Errorf("core: cannot train on an empty series")
	}
	sc.obs = d.disc.QuantizeAllInto(acs, sc.obs)
	seqs := sc.seqInt(sc.obs)
	cfg := d.cfg.Train
	var m *hmm.Discrete
	warm := prev != nil && prev.Discrete != nil && prev.Discrete.Symbols() == d.disc.Symbols()
	if warm {
		m = prev.Discrete.Clone()
	} else {
		m = d.newDiscreteModel()
	}
	cfg.WarmStart = warm
	res, err := m.BaumWelchWS(sc.ws, seqs, cfg)
	if warm && (err != nil || !res.Converged) {
		// The warm seed led EM astray (or straight into an error); redo
		// the fit cold so a stale seed can never produce a worse model
		// than the paper's per-decode EM.
		m = d.newDiscreteModel()
		cfg.WarmStart = false
		res, err = m.BaumWelchWS(sc.ws, seqs, cfg)
	}
	if err != nil {
		return nil, res, fmt.Errorf("train claim model: %w", err)
	}
	// Re-anchor state semantics after EM: the True state is the one whose
	// emission mass sits higher in the (ordered) symbol alphabet.
	trueState := 1
	if emissionCenter(m.B[1]) < emissionCenter(m.B[0]) {
		trueState = 0
	}
	return &TrainedModel{Discrete: m, TrueState: trueState}, res, nil
}

// DecodeWithScratch Viterbi-decodes the series under a previously trained
// model on the caller's scratch: the quantized observations, the Viterbi
// lattice and the returned truth slice all live in sc, so a warmed scratch
// decodes with zero heap allocations. The result is valid until the next
// call using sc.
func (d *Decoder) DecodeWithScratch(sc *DecodeScratch, m *TrainedModel, acs []float64) ([]socialsensing.TruthValue, error) {
	return d.decodeScratch(sc, m, acs, false)
}

// decodeScratch is DecodeWithScratch. fitted says m was just trained on
// acs with sc, so acs is already quantized in sc.obs.
func (d *Decoder) decodeScratch(sc *DecodeScratch, m *TrainedModel, acs []float64, fitted bool) ([]socialsensing.TruthValue, error) {
	if len(acs) == 0 {
		return nil, nil
	}
	if m == nil {
		return nil, fmt.Errorf("core: nil trained model")
	}
	if m.Discrete == nil {
		return nil, fmt.Errorf("core: discrete model missing parameters")
	}
	if !fitted {
		sc.obs = d.disc.QuantizeAllInto(acs, sc.obs)
	}
	path, _, err := m.Discrete.ViterbiWS(sc.ws, sc.obs, sc.path)
	if err != nil {
		return nil, fmt.Errorf("decode claim truth: %w", err)
	}
	sc.path = path
	sc.truth = pathToTruthInto(path, m.TrueState, sc.truth)
	return sc.truth, nil
}

// DecodeInto is Decode (train fresh, then Viterbi) running entirely on the
// caller's scratch buffers; the returned truth slice is valid until the
// next call using sc. The series is quantized once, for both.
func (d *Decoder) DecodeInto(sc *DecodeScratch, acs []float64) ([]socialsensing.TruthValue, error) {
	if len(acs) == 0 {
		return nil, nil
	}
	m, _, err := d.TrainWarmScratch(sc, acs, nil)
	if err != nil {
		return nil, err
	}
	return d.decodeScratch(sc, m, acs, true)
}

// newDiscreteModel builds the informative-prior 2-state model: symbol bins
// are ordered negative→positive, so the False state's emissions decay with
// bin index and the True state's grow. Its parameters share one backing
// array, rows capped so that an append cannot run into the next.
func (d *Decoder) newDiscreteModel() *hmm.Discrete {
	sym := d.disc.Symbols()
	v := make([]float64, 6+2*sym)
	copy(v, []float64{0.5, 0.5, 0.9, 0.1, 0.1, 0.9})
	rows := [][]float64{v[2:4:4], v[4:6:6], v[6 : 6+sym : 6+sym], v[6+sym:]}
	m := &hmm.Discrete{A: rows[0:2:2], B: rows[2:], Pi: v[0:2:2]}
	for k := 0; k < sym; k++ {
		// Linear ramps: False prefers low bins, True prefers high bins.
		m.B[0][k] = float64(sym - k)
		m.B[1][k] = float64(k + 1)
	}
	normalize(m.B[0])
	normalize(m.B[1])
	return m
}

// emissionCenter is the expected bin index under an emission distribution.
func emissionCenter(b []float64) float64 {
	c := 0.0
	for k, p := range b {
		c += float64(k) * p
	}
	return c
}

func normalize(row []float64) {
	sum := 0.0
	for _, v := range row {
		sum += v
	}
	if sum > 0 {
		for i := range row {
			row[i] /= sum
		}
	}
}
