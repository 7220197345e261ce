// Package pipeline composes the full SSTD ingestion path behind one API:
// raw posts are keyword-filtered, clustered into claims (the paper's claim
// generator), semantically scored into contribution-score reports, and fed
// to the streaming truth discovery engine. It is the library form of the
// deployment loop every SSTD application writes.
package pipeline

import (
	"errors"
	"fmt"
	"time"

	"github.com/social-sensing/sstd/internal/clustering"
	"github.com/social-sensing/sstd/internal/contrib"
	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/textutil"
)

// RawPost is an unprocessed observation: who said what, when.
type RawPost struct {
	Source socialsensing.SourceID
	Time   time.Time
	Text   string
}

// Config assembles a Pipeline.
type Config struct {
	// Engine configures the truth discovery engine; Engine.Origin is
	// required.
	Engine core.Config
	// Cluster configures claim generation; set Cluster.Keywords to the
	// event filter.
	Cluster clustering.Config
	// ScorerOptions customize semantic scoring (e.g. a sports attitude
	// lexicon or a trained stance classifier).
	ScorerOptions []contrib.Option
	// Metrics enables pipeline ingest telemetry, and — unless the
	// engine config carries its own registry — engine telemetry too.
	// Nil disables it.
	Metrics *obs.Registry
	// Logger receives structured pipeline events (ingest failures,
	// cluster compaction). Nil disables logging.
	Logger *obs.Logger
}

// Pipeline is the composed ingestion path. It is not safe for concurrent
// use: posts must arrive in time order (the engine itself may be shared
// and queried concurrently).
type Pipeline struct {
	clusterer *clustering.Clusterer
	scorer    *contrib.Scorer
	engine    *core.Engine
	logger    *obs.Logger

	// Telemetry handles; nil when Config.Metrics is nil.
	cPosts    *obs.Counter
	cKept     *obs.Counter
	cFiltered *obs.Counter
	gClusters *obs.Gauge

	posts    int
	kept     int
	filtered int
}

// New builds the pipeline.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Engine.Origin.IsZero() {
		return nil, errors.New("pipeline: engine config needs an origin time")
	}
	if cfg.Metrics != nil && cfg.Engine.Metrics == nil {
		cfg.Engine.Metrics = cfg.Metrics
	}
	eng, err := core.NewEngine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		clusterer: clustering.New(cfg.Cluster),
		scorer:    contrib.NewScorer(cfg.ScorerOptions...),
		engine:    eng,
		logger:    cfg.Logger,
	}
	if reg := cfg.Metrics; reg != nil {
		p.cPosts = reg.Counter("pipeline_posts_total")
		p.cKept = reg.Counter("pipeline_kept_total")
		p.cFiltered = reg.Counter("pipeline_filtered_total")
		p.gClusters = reg.Gauge("pipeline_claims")
	}
	return p, nil
}

// Process routes one raw post through the pipeline. It returns the claim
// the post was assigned to and kept=false when the keyword filter dropped
// it.
func (p *Pipeline) Process(post RawPost) (claim socialsensing.ClaimID, kept bool, err error) {
	p.posts++
	p.cPosts.Inc()
	report, ok := p.frontEnd(post)
	if !ok {
		p.filtered++
		p.cFiltered.Inc()
		return "", false, nil
	}
	if err := p.engine.Ingest(report); err != nil {
		p.logger.Error("pipeline ingest failed",
			obs.F("claim", string(report.Claim)), obs.F("source", string(post.Source)), obs.Err(err))
		return "", false, fmt.Errorf("pipeline: ingest: %w", err)
	}
	p.kept++
	p.cKept.Inc()
	p.gClusters.SetInt(p.clusterer.Len())
	return report.Claim, true, nil
}

// frontEnd is the paper's preprocessing (§V-A2) for one post: tokenize it
// once, then filter, attribute it to a claim and score it from that one
// Doc. ok is false when the keyword filter dropped the post.
func (p *Pipeline) frontEnd(post RawPost) (report socialsensing.Report, ok bool) {
	doc := textutil.NewDoc(post.Text)
	clusterID, ok := p.clusterer.AssignDoc(doc, post.Time)
	if !ok {
		return report, false
	}
	return p.scorer.ScoreDoc(contrib.Post{
		Source:    post.Source,
		Claim:     socialsensing.ClaimID(clusterID),
		Timestamp: post.Time,
		Text:      post.Text,
	}, doc), true
}

// ProcessAll routes a batch of posts in order.
func (p *Pipeline) ProcessAll(posts []RawPost) error {
	for _, post := range posts {
		if _, _, err := p.Process(post); err != nil {
			return err
		}
	}
	return nil
}

// Engine exposes the underlying truth discovery engine for decoding and
// posterior queries.
func (p *Pipeline) Engine() *core.Engine { return p.engine }

// Claims returns the current derived claims (clusters), largest first.
func (p *Pipeline) Claims() []clustering.Cluster { return p.clusterer.Clusters() }

// Compact re-fuses claim clusters that drifted apart during streaming and
// returns the number of merges. Note that reports already ingested keep
// their original claim IDs; call this between processing batches, before
// decoding, when fragmentation is visible in Claims().
func (p *Pipeline) Compact() int {
	merges := p.clusterer.Compact()
	if merges > 0 {
		p.logger.Info("compacted claim clusters",
			obs.F("merges", merges), obs.F("claims", p.clusterer.Len()))
	}
	return merges
}

// Stats summarizes pipeline throughput.
type Stats struct {
	Posts    int
	Kept     int
	Filtered int
	Claims   int
}

// Stats reports what the pipeline has processed.
func (p *Pipeline) Stats() Stats {
	return Stats{
		Posts:    p.posts,
		Kept:     p.kept,
		Filtered: p.filtered,
		Claims:   p.clusterer.Len(),
	}
}
