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
}

// Pipeline is the composed ingestion path. It is not safe for concurrent
// use: posts must arrive in time order (the engine itself may be shared
// and queried concurrently).
type Pipeline struct {
	clusterer *clustering.Clusterer
	scorer    *contrib.Scorer
	engine    *core.Engine

	posts    int
	kept     int
	filtered int
}

// New builds the pipeline.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Engine.Origin.IsZero() {
		return nil, errors.New("pipeline: engine config needs an origin time")
	}
	eng, err := core.NewEngine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		clusterer: clustering.New(cfg.Cluster),
		scorer:    contrib.NewScorer(),
		engine:    eng,
	}
	return p, nil
}

// Process routes one raw post through the pipeline. It returns the claim
// the post was assigned to and kept=false when the keyword filter dropped
// it.
func (p *Pipeline) Process(post RawPost) (claim socialsensing.ClaimID, kept bool, err error) {
	p.posts++
	report, ok := p.frontEnd(post)
	if !ok {
		p.filtered++
		return "", false, nil
	}
	if err := p.engine.Ingest(report); err != nil {
		return "", false, fmt.Errorf("pipeline: ingest: %w", err)
	}
	p.kept++
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
