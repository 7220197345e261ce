package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/social-sensing/sstd/internal/clustering"
	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/pipeline"
	"github.com/social-sensing/sstd/internal/socialsensing"
)

// replayResult is what one pipeline_replay run observed.
type replayResult struct {
	window time.Duration
	// posts and rounds count Process and DecodeAll calls in the window.
	posts, rounds int
	failed        int
	firstFail     error
	accuracy      float64
}

func newPipeline(w workload, in *inputs) (*pipeline.Pipeline, error) {
	ecfg := core.DefaultConfig(in.trace.Start)
	ecfg.ACS = w.acs()
	ecfg.RetrainGrowth = 0.2
	ecfg.Decoder.Train.WarmStart = true
	ccfg := clustering.DefaultConfig()
	ccfg.Keywords = w.profile().Keywords
	return pipeline.New(pipeline.Config{Engine: ecfg, Cluster: ccfg})
}

// replayer pushes the trace's raw posts, in time order, through one
// pipeline and decodes every claim after each decodeEvery posts.
type replayer struct {
	in *inputs
	p  *pipeline.Pipeline
	// next is the index of the next post to process.
	next int
	// last is the latest DecodeAll snapshot.
	last map[socialsensing.ClaimID][]core.Estimate
}

func newReplayer(w workload, in *inputs) (*replayer, error) {
	p, err := newPipeline(w, in)
	if err != nil {
		return nil, err
	}
	return &replayer{in: in, p: p}, nil
}

// step runs one round: it processes posts up to the next decode point (or
// the end of the trace) and then decodes every claim. It returns a digest
// of every decoded timeline.
func (r *replayer) step() (digest uint64, err error) {
	reports := r.in.trace.Reports
	end := r.next + decodeEvery
	if end > len(reports) {
		end = len(reports)
	}
	for ; r.next < end; r.next++ {
		rep := reports[r.next]
		if _, _, err := r.p.Process(pipeline.RawPost{Source: rep.Source, Time: rep.Timestamp, Text: rep.Text}); err != nil {
			return 0, err
		}
	}
	all, err := r.p.Engine().DecodeAll()
	if err != nil {
		return 0, err
	}
	r.last = all
	return digestTimelines(all), nil
}

func (r *replayer) done() bool { return r.next >= len(r.in.trace.Reports) }

// score counts the intervals of the last decoded snapshot that equal the
// exact decode of the same series: a cold Baum-Welch fit and Viterbi pass
// per claim, the paper's per-decode EM. The trace's ground truth cannot
// score the replay, because the clusterer derives its own claims (the
// profile's 40 claims share 8 topic texts, so each derived claim mixes
// several ground truths). What a replay user can lose is fidelity: the
// engine serves cached models and warm-started refits.
func (r *replayer) score() (matched, scored int, err error) {
	dec, err := core.NewDecoder(core.DefaultDecoderConfig())
	if err != nil {
		return 0, 0, err
	}
	for claim, est := range r.last {
		exact, err := dec.Decode(r.p.Engine().ACSSeries(claim))
		if err != nil {
			return 0, 0, err
		}
		if len(exact) != len(est) {
			return 0, 0, fmt.Errorf("claim %s: %d intervals decoded, its series has %d", claim, len(est), len(exact))
		}
		for t, e := range est {
			if e.Value == exact[t] {
				matched++
			}
		}
		scored += len(est)
	}
	return matched, scored, nil
}

// digestTimelines hashes every claim's decoded values in claim order.
func digestTimelines(all map[socialsensing.ClaimID][]core.Estimate) uint64 {
	ids := make([]string, 0, len(all))
	for id := range all {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	h := uint64(fnvOffset)
	for _, id := range ids {
		for i := 0; i < len(id); i++ {
			h = fnvByte(h, id[i])
		}
		for _, e := range all[socialsensing.ClaimID(id)] {
			h = fnvByte(h, byte(e.Value))
		}
	}
	return h
}

// runReplay replays the trace for warmup (discarded) and then, on a fresh
// pipeline, for measure. The trace restarts on another fresh pipeline if
// it runs out first. The warm-up's per-round digests are the run's own
// reference: the measured replay must reproduce them round for round.
func runReplay(w workload, in *inputs, warmup, measure time.Duration) (*replayResult, error) {
	var want []uint64
	r, err := newReplayer(w, in)
	if err != nil {
		return nil, err
	}
	for begin := time.Now(); time.Since(begin) < warmup && !r.done(); {
		digest, err := r.step()
		if err != nil {
			return nil, err
		}
		want = append(want, digest)
	}

	res := &replayResult{}
	fail := func(err error) {
		res.failed++
		if res.firstFail == nil {
			res.firstFail = err
		}
	}
	var matched, scored int
	begin := time.Now()
	for time.Since(begin) < measure {
		if r, err = newReplayer(w, in); err != nil {
			return nil, err
		}
		for round := 0; time.Since(begin) < measure && !r.done(); round++ {
			before := r.next
			digest, err := r.step()
			res.posts += r.next - before
			if err != nil {
				fail(err)
				break
			}
			res.rounds++
			if round < len(want) && digest != want[round] {
				fail(fmt.Errorf("round %d decoded differently from the warm-up replay of the same posts", round))
			}
		}
		res.window = time.Since(begin)
		m, s, err := r.score()
		if err != nil {
			return nil, err
		}
		matched += m
		scored += s
	}
	res.accuracy = ratio(float64(matched), float64(scored))
	return res, nil
}
