package main

import (
	"context"
	"fmt"
	"time"

	"github.com/social-sensing/sstd/internal/clustering"
	"github.com/social-sensing/sstd/internal/contrib"
	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/workqueue"
)

// isolatedRounds is how often each per-claim layer call is repeated over
// the whole claim set; the reported figure is the mean over all calls.
const isolatedRounds = 3

// isolatedPosts caps how many posts the clustering and scoring calls
// replay: enough for every claim's cluster to form and fill.
const isolatedPosts = 6000

// isolated holds the per-layer costs measured by calling each layer's
// exported API directly on the workload's inputs, outside any cluster.
type isolated struct {
	acsAddNsPerReport      float64
	ingestNsPerReport      float64
	trainUsPerClaim        float64
	emIterationsPerClaim   float64
	viterbiNsPerInterval   float64
	decodeUsPerClaim       float64
	warmDecodeUsPerClaim   float64
	clusterAssignUsPerPost float64
	contribScoreUsPerPost  float64
}

// measureIsolated replays the workload's inputs through core, hmm (via
// core.Decoder's scratch entry points, which add only the quantisation
// pass), clustering and contrib, one layer at a time.
func measureIsolated(w workload, in *inputs) (isolated, error) {
	var out isolated
	reports := len(in.trace.Reports)

	// core: the series the cluster's finalize step would decode, built
	// here from the same reports with the exported accumulator.
	series := make([][]float64, len(in.jobs))
	var addTime time.Duration
	for i, j := range in.jobs {
		acc, err := core.NewACSAccumulator(w.acs(), in.trace.Start)
		if err != nil {
			return out, err
		}
		start := time.Now()
		for _, r := range j.reports {
			acc.Add(r)
		}
		addTime += time.Since(start)
		series[i] = acc.Series()
	}
	out.acsAddNsPerReport = ratio(float64(addTime), float64(reports))

	eng, err := core.NewEngine(core.Config{ACS: w.acs(), Decoder: core.DefaultDecoderConfig(), Origin: in.trace.Start})
	if err != nil {
		return out, err
	}
	start := time.Now()
	if err := eng.IngestAll(in.trace.Reports); err != nil {
		return out, err
	}
	out.ingestNsPerReport = ratio(float64(time.Since(start)), float64(reports))

	dec, err := core.NewDecoder(core.DefaultDecoderConfig())
	if err != nil {
		return out, err
	}
	sc := core.NewDecodeScratch()
	var train, viterbi, decode, warm time.Duration
	var iterations, intervals, calls int
	for round := 0; round < isolatedRounds; round++ {
		for _, s := range series {
			calls++
			intervals += len(s)

			start := time.Now()
			model, res, err := dec.TrainWarmScratch(sc, s, nil)
			train += time.Since(start)
			if err != nil {
				return out, err
			}
			iterations += res.Iterations

			start = time.Now()
			if _, err := dec.DecodeWithScratch(sc, model, s); err != nil {
				return out, err
			}
			viterbi += time.Since(start)

			start = time.Now()
			if _, err := dec.DecodeInto(sc, s); err != nil {
				return out, err
			}
			decode += time.Since(start)

			// Warm decode: the model fitted when the stream was 20%
			// shorter seeds the fit of the full series, as the engine's
			// model cache does under RetrainGrowth.
			prev, _, err := dec.TrainWarmScratch(sc, s[:len(s)-len(s)/5], nil)
			if err != nil {
				return out, err
			}
			start = time.Now()
			model, _, err = dec.TrainWarmScratch(sc, s, prev)
			if err == nil {
				_, err = dec.DecodeWithScratch(sc, model, s)
			}
			warm += time.Since(start)
			if err != nil {
				return out, err
			}
		}
	}
	out.trainUsPerClaim = ratio(us(train), float64(calls))
	out.emIterationsPerClaim = ratio(float64(iterations), float64(calls))
	out.viterbiNsPerInterval = ratio(float64(viterbi), float64(intervals))
	out.decodeUsPerClaim = ratio(us(decode), float64(calls))
	out.warmDecodeUsPerClaim = ratio(us(warm), float64(calls))

	// clustering and contrib: the two stages in front of the engine on
	// the raw-post path, fed the trace's first posts in time order.
	posts := in.trace.Reports
	if len(posts) > isolatedPosts {
		posts = posts[:isolatedPosts]
	}
	ccfg := clustering.DefaultConfig()
	ccfg.Keywords = w.profile().Keywords
	clusterer := clustering.New(ccfg)
	ids := make([]string, len(posts))
	start = time.Now()
	for i, p := range posts {
		ids[i], _ = clusterer.Assign(p.Text, p.Timestamp)
	}
	out.clusterAssignUsPerPost = ratio(us(time.Since(start)), float64(len(posts)))

	scorer := contrib.NewScorer()
	start = time.Now()
	for i, p := range posts {
		scorer.ScorePost(contrib.Post{Source: p.Source, Claim: socialsensing.ClaimID(ids[i]), Timestamp: p.Timestamp, Text: p.Text})
	}
	out.contribScoreUsPerPost = ratio(us(time.Since(start)), float64(len(posts)))
	return out, nil
}

// noopResult is one run of the bare work queue.
type noopResult struct {
	roundtripP50Us float64
	tasksPerS      float64
}

// runNoop drives workqueue alone: a master and a two-worker pool whose
// executor returns its input, fed opaque payloads of the given size with
// up to window tasks outstanding. batch is MasterConfig.BatchSize.
func runNoop(payloadBytes, batch, window int, d time.Duration) (noopResult, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	master := workqueue.NewMaster(workqueue.MasterConfig{ResultBuffer: 256, BatchSize: batch})
	pool := workqueue.NewPool(master, func(_ context.Context, p []byte) ([]byte, error) { return p[:8], nil })
	pool.Resize(ctx, clusterWorkers)
	defer func() {
		pool.Close()
		master.Shutdown()
	}()
	for start := time.Now(); master.WorkerCount() < clusterWorkers; time.Sleep(100 * time.Microsecond) {
		if time.Since(start) > drainTimeout {
			return noopResult{}, fmt.Errorf("noop pool: only %d workers registered", master.WorkerCount())
		}
	}

	payload := make([]byte, payloadBytes+8)
	sent := make(map[string]time.Time, window)
	var trips []float64
	submit := func(k int) error {
		id := fmt.Sprintf("noop/%d", k)
		sent[id] = time.Now()
		return master.Submit(workqueue.Task{ID: id, JobID: fmt.Sprintf("noop-%d", k%window), Payload: payload})
	}
	begin := time.Now()
	k := 0
	for ; k < window; k++ {
		if err := submit(k); err != nil {
			return noopResult{}, err
		}
	}
	for done := 0; ; {
		r := <-master.Results()
		if r.Err != "" {
			return noopResult{}, fmt.Errorf("noop task %s: %s", r.TaskID, r.Err)
		}
		trips = append(trips, us(time.Since(sent[r.TaskID])))
		delete(sent, r.TaskID)
		done++
		if time.Since(begin) < d {
			if err := submit(k); err != nil {
				return noopResult{}, err
			}
			k++
		} else if len(sent) == 0 {
			return noopResult{roundtripP50Us: median(trips), tasksPerS: float64(done) / time.Since(begin).Seconds()}, nil
		}
	}
}
