package pipeline

import (
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/clustering"
	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/tracegen"
)

func origin() time.Time { return time.Date(2013, 4, 15, 14, 49, 0, 0, time.UTC) }

func newPipeline(t *testing.T, keywords []string) *Pipeline {
	t.Helper()
	ecfg := core.DefaultConfig(origin())
	ecfg.ACS.Interval = 30 * time.Minute
	ccfg := clustering.DefaultConfig()
	ccfg.Keywords = keywords
	p, err := New(Config{Engine: ecfg, Cluster: ccfg})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPipelineValidation(t *testing.T) {
	if _, err := New(Config{Cluster: clustering.DefaultConfig()}); err == nil {
		t.Error("missing origin accepted")
	}
}

func TestPipelineFiltersAndClusters(t *testing.T) {
	p := newPipeline(t, []string{"boston", "marathon"})
	claim1, kept, err := p.Process(RawPost{Source: "a", Time: origin(), Text: "explosion at the boston marathon finish line"})
	if err != nil || !kept {
		t.Fatalf("relevant post dropped: %v %v", kept, err)
	}
	if _, kept, _ := p.Process(RawPost{Source: "b", Time: origin(), Text: "great sandwich for lunch"}); kept {
		t.Error("irrelevant post kept")
	}
	claim2, kept, err := p.Process(RawPost{Source: "c", Time: origin().Add(time.Minute), Text: "explosions at the boston marathon finish line reported"})
	if err != nil || !kept {
		t.Fatal(err)
	}
	if claim1 != claim2 {
		t.Errorf("near-identical posts in different claims: %s vs %s", claim1, claim2)
	}
	st := p.Stats()
	if st.Posts != 3 || st.Kept != 2 || st.Filtered != 1 || st.Claims != 1 {
		t.Errorf("stats = %+v", st)
	}
	if len(p.clusterer.Clusters()) != 1 {
		t.Errorf("claims = %d", len(p.clusterer.Clusters()))
	}
}

func TestPipelineEndToEndDecode(t *testing.T) {
	// Run a generated trace's raw text through the pipeline and decode:
	// the busiest derived claim must be decodable with plausible output.
	gen, err := tracegen.New(tracegen.BostonBombing(), 9)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate(0.002)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := core.DefaultConfig(tr.Start)
	ecfg.ACS.Interval = tr.Duration() / 60
	ccfg := clustering.DefaultConfig()
	ccfg.Keywords = tracegen.BostonBombing().Keywords
	p, err := New(Config{Engine: ecfg, Cluster: ccfg})
	if err != nil {
		t.Fatal(err)
	}
	posts := make([]RawPost, len(tr.Reports))
	for i, r := range tr.Reports {
		posts[i] = RawPost{Source: r.Source, Time: r.Timestamp, Text: r.Text}
	}
	if err := p.ProcessAll(posts); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Kept < len(posts)/2 {
		t.Fatalf("kept only %d/%d posts", st.Kept, len(posts))
	}
	clusters := p.clusterer.Clusters()
	if len(clusters) == 0 {
		t.Fatal("no claims derived")
	}
	est, err := p.Engine().DecodeClaim(socialsensing.ClaimID(clusters[0].ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(est) == 0 {
		t.Error("no estimates for the busiest claim")
	}
}
