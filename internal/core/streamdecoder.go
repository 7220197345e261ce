package core

import (
	"fmt"

	"github.com/social-sensing/sstd/internal/obs/flightrec"
	"github.com/social-sensing/sstd/internal/socialsensing"
)

// StreamingDecoder decodes one claim's truth incrementally with fixed-lag
// smoothing: each new ACS observation triggers a re-decode of only the
// trailing lag window, while estimates older than the lag are pinned. This
// bounds per-update cost for long-running streams — full Viterbi re-decode
// grows linearly with stream length — at the cost of not revising old
// decisions, which is exactly the trade a live deployment wants (the paper
// targets real-time responsiveness; historical revisions are pointless
// once the estimate has been acted on).
type StreamingDecoder struct {
	decoder *Decoder
	// Lag is how many trailing observations stay revisable.
	lag int

	// series holds the decode window, the last 2·lag observations; n
	// counts every observation appended.
	series []float64
	n      int

	// scratch backs every per-append decode; model is the previous
	// window's fit, the warm-start seed when cfg.Train.WarmStart is on.
	scratch *DecodeScratch
	model   *TrainedModel

	// fr probes window decodes and frontier rotations into the flight
	// recorder (nil, and free, when none is enabled).
	fr *flightrec.Ring
}

// NewStreamingDecoder wraps a Decoder with fixed-lag smoothing. lag must
// be at least 1; the paper's sliding-window intuition suggests a lag a few
// times the ACS window.
func NewStreamingDecoder(cfg DecoderConfig, lag int) (*StreamingDecoder, error) {
	if lag < 1 {
		return nil, fmt.Errorf("core: streaming decoder lag must be >= 1, got %d", lag)
	}
	dec, err := NewDecoder(cfg)
	if err != nil {
		return nil, err
	}
	return &StreamingDecoder{
		decoder: dec, lag: lag, scratch: NewDecodeScratch(),
		fr: flightrec.Fresh("stream"),
	}, nil
}

// decodeWindow trains on and decodes the window: the trailing lag
// observations extended backwards by one lag of context so the HMM has
// history to anchor its state. It reuses the decoder scratch. With
// cfg.Train.WarmStart on, EM is seeded from the previous append's fit —
// consecutive windows share all but one observation, so the seed is
// already near the EM fixed point and the per-append training cost
// collapses to one or two EM passes. A discrete window is quantized once,
// for training and Viterbi both. The returned truth is scratch-backed,
// valid until the next call.
func (s *StreamingDecoder) decodeWindow() ([]socialsensing.TruthValue, error) {
	if len(s.series) == 0 {
		return nil, nil
	}
	var prev *TrainedModel
	if s.decoder.cfg.Train.WarmStart {
		prev = s.model
	}
	model, _, err := s.decoder.TrainWarmScratch(s.scratch, s.series, prev)
	if err != nil {
		return nil, err
	}
	s.model = model
	return s.decoder.decodeScratch(s.scratch, model, s.series, true)
}

// Append ingests the next ACS observation and returns the current estimate
// for the newest interval. The observation that leaves the window with it
// is forgotten: its decision was pinned when it left the lag, and nothing
// revises it.
func (s *StreamingDecoder) Append(acs float64) (socialsensing.TruthValue, error) {
	if len(s.series) == 2*s.lag {
		s.series = append(s.series[:0], s.series[1:]...)
	}
	s.series = append(s.series, acs)
	s.n++
	tp := s.fr.Start()
	truth, err := s.decodeWindow()
	if err != nil {
		return socialsensing.False, err
	}
	tp = s.fr.Probe(flightrec.ProbeStreamAppend, tp, int64(s.n), 0)
	if s.n > s.lag {
		// Interval n − lag has left the lag window.
		s.fr.Probe(flightrec.ProbeStreamRotate, tp, 1, 0)
	}
	return truth[len(truth)-1], nil
}
