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

	series []float64
	// pinned[i] holds the frozen decision for interval i < frontier.
	pinned   []socialsensing.TruthValue
	frontier int

	// scratch backs every per-append decode; model is the previous
	// window's fit, the warm-start seed when cfg.Train.WarmStart is on.
	scratch    *DecodeScratch
	model      *TrainedModel
	trainIters int

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

// decodeWindow trains on and decodes the current window, reusing the
// decoder scratch. With cfg.Train.WarmStart on, EM is seeded from the
// previous append's fit — consecutive windows share all but one
// observation, so the seed is already near the fixed point and the
// per-append training cost collapses to one or two EM iterations. A
// discrete window is quantized once, for training and Viterbi both. The
// returned truth is scratch-backed, valid until the next call.
func (s *StreamingDecoder) decodeWindow() ([]socialsensing.TruthValue, error) {
	win := s.windowSeries()
	if len(win) == 0 {
		return nil, nil
	}
	var prev *TrainedModel
	if s.decoder.cfg.Train.WarmStart {
		prev = s.model
	}
	model, res, err := s.decoder.TrainWarmScratch(s.scratch, win, prev)
	if err != nil {
		return nil, err
	}
	s.model = model
	s.trainIters += res.Iterations
	return s.decoder.decodeScratch(s.scratch, model, win, true)
}

// Append ingests the next ACS observation and returns the current estimate
// for the newest interval.
func (s *StreamingDecoder) Append(acs float64) (socialsensing.TruthValue, error) {
	s.series = append(s.series, acs)
	tp := s.fr.Start()
	truth, err := s.decodeWindow()
	if err != nil {
		return socialsensing.False, err
	}
	tp = s.fr.Probe(flightrec.ProbeStreamAppend, tp, int64(len(s.series)), 0)
	// Pin everything that has fallen out of the lag window.
	newFrontier := len(s.series) - s.lag
	for i := s.frontier; i < newFrontier; i++ {
		s.pinned = append(s.pinned, truth[i-s.offset()])
	}
	if newFrontier > s.frontier {
		s.fr.Probe(flightrec.ProbeStreamRotate, tp, int64(newFrontier-s.frontier), 0)
		s.frontier = newFrontier
	}
	return truth[len(truth)-1], nil
}

// windowSeries returns the revisable suffix plus pinned-context prefix the
// decoder sees: the trailing lag observations extended backwards by one
// lag of context so the HMM has history to anchor its state.
func (s *StreamingDecoder) windowSeries() []float64 {
	start := s.offset()
	return s.series[start:]
}

// offset is the index of the first observation passed to the decoder.
func (s *StreamingDecoder) offset() int {
	start := len(s.series) - 2*s.lag
	if start < 0 {
		return 0
	}
	return start
}
