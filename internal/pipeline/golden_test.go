package pipeline

import (
	"math"
	"testing"

	"github.com/social-sensing/sstd/internal/clustering"
	"github.com/social-sensing/sstd/internal/contrib"
	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/nlp"
	"github.com/social-sensing/sstd/internal/tracegen"
)

// fnv1a folds b into the FNV-1a digest h.
func fnv1a(h uint64, b ...byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func fnv1aBits(h uint64, f float64) uint64 {
	v := math.Float64bits(f)
	for i := 0; i < 64; i += 8 {
		h = fnv1a(h, byte(v>>i))
	}
	return h
}

// TestFrontEndGolden pins what the preprocessing front end decides for
// every post of the three trace profiles (scale 0.02, seed 7): the assign
// digest covers each post's (claim ID, kept), the score digest each kept
// post's attitude and the bits of its uncertainty and independence.
// College Football runs the sports lexicon, so support words and phrases
// are covered.
//
// The constants were recorded from the map[string]bool front end at commit
// 07b1ffd (cluster + score per post, as Process did). The tokenize-once /
// hashed-set / incremental-cluster rewrite reproduced all three pairs
// unchanged. So did the stale-claim-after-split fix that followed: it
// re-attributes 0 posts at this scale (2 of College Football's 107,254 at
// scale 0.25, seed 42; none of Boston's or Paris's).
func TestFrontEndGolden(t *testing.T) {
	want := map[string][2]uint64{
		"boston-bombing":   {0xd554fcb3ae6e8926, 0xcce7d7eee8586c8a},
		"paris-shooting":   {0x3709eda85ae4809a, 0x917a75fa5a4a0528},
		"college-football": {0x47a622815adfeed9, 0x2686e3f445c0730f},
	}
	for _, prof := range tracegen.Profiles() {
		gen, err := tracegen.New(prof, 7)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := gen.Generate(0.02)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Engine: core.DefaultConfig(tr.Start), Cluster: clustering.DefaultConfig()}
		cfg.Cluster.Keywords = prof.Keywords
		if prof.Name == "college-football" {
			cfg.ScorerOptions = []contrib.Option{contrib.WithAttitudeScorer(nlp.NewSportsAttitudeScorer())}
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const offset = 14695981039346656037
		assign, score := uint64(offset), uint64(offset)
		for _, r := range tr.Reports {
			rep, kept := p.frontEnd(RawPost{Source: r.Source, Time: r.Timestamp, Text: r.Text})
			assign = fnv1a(assign, []byte(rep.Claim)...)
			if !kept {
				assign = fnv1a(assign, 0)
				continue
			}
			assign = fnv1a(assign, 1)
			score = fnv1a(score, byte(rep.Attitude))
			score = fnv1aBits(score, rep.Uncertainty)
			score = fnv1aBits(score, rep.Independence)
		}
		if got := [2]uint64{assign, score}; got != want[prof.Name] {
			t.Errorf("%s: assign %#x score %#x, want %#x %#x", prof.Name, assign, score, want[prof.Name][0], want[prof.Name][1])
		}
	}
}
