package clustering

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/textutil"
)

func at() time.Time { return time.Date(2013, 4, 15, 14, 50, 0, 0, time.UTC) }

func TestSimilarPostsShareCluster(t *testing.T) {
	c := New(DefaultConfig())
	id1, ok := c.Assign("two explosions at the boston marathon finish line", at())
	if !ok {
		t.Fatal("post filtered unexpectedly")
	}
	id2, _ := c.Assign("explosions at the boston marathon finish line reported", at())
	if id1 != id2 {
		t.Errorf("near-identical posts in different clusters: %q vs %q", id1, id2)
	}
}

func TestDissimilarPostsSplitClusters(t *testing.T) {
	c := New(DefaultConfig())
	id1, _ := c.Assign("two explosions at the boston marathon finish line", at())
	id2, _ := c.Assign("suspect seen near the jfk library with a backpack", at())
	if id1 == id2 {
		t.Error("unrelated posts landed in the same cluster")
	}
	if c.Len() != 2 {
		t.Errorf("cluster count = %d, want 2", c.Len())
	}
}

func TestKeywordFilter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Keywords = []string{"boston", "marathon", "bombing"}
	c := New(cfg)
	if _, ok := c.Assign("nice sandwich for lunch today", at()); ok {
		t.Error("irrelevant post passed keyword filter")
	}
	if _, ok := c.Assign("praying for boston this is terrible", at()); !ok {
		t.Error("relevant post was filtered out")
	}
}

// TestKeywordSpellings holds keywords to the token rule posts follow: case,
// a hashtag marker and punctuation do not change what a keyword matches,
// and an entry of several words matches a post holding any one of them.
func TestKeywordSpellings(t *testing.T) {
	const post = "Explosion near the finish line in #Boston"
	for _, tt := range []struct {
		keyword string
		kept    bool
	}{
		{"boston", true},
		{"Boston", true},
		{"#Boston", true},
		{"BOSTON,", true},
		{"Marathon Boston", true},
		{"marathon", false},
	} {
		cfg := DefaultConfig()
		cfg.Keywords = []string{tt.keyword}
		if _, kept := New(cfg).Assign(post, at()); kept != tt.kept {
			t.Errorf("keyword %q: post kept %v, want %v", tt.keyword, kept, tt.kept)
		}
	}
}

func TestClustersSnapshotSortedBySize(t *testing.T) {
	c := New(DefaultConfig())
	for i := 0; i < 5; i++ {
		c.Assign("bomb threat at the jfk library reported", at())
	}
	c.Assign("suspect fleeing on boylston street", at())
	snap := c.Clusters()
	if len(snap) < 2 {
		t.Fatalf("snapshot has %d clusters, want >= 2", len(snap))
	}
	if snap[0].Size < snap[1].Size {
		t.Error("snapshot not sorted by descending size")
	}
	if snap[0].Size != 5 {
		t.Errorf("largest cluster size = %d, want 5", snap[0].Size)
	}
	// Snapshot centroids must be copies.
	for tok := range snap[0].Centroid {
		delete(snap[0].Centroid, tok)
	}
	if got := c.Clusters()[0]; len(got.Centroid) == 0 {
		t.Error("mutating snapshot centroid corrupted internal state")
	}
}

func TestDriftingClusterSplits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JoinThreshold = 0.99 // force everything into one cluster first
	cfg.SplitDiameter = 0.8
	c := New(cfg)
	// Two distinct topics that would merge under the loose threshold.
	for i := 0; i < 4; i++ {
		c.Assign(fmt.Sprintf("marathon explosion smoke everywhere %d", i), at())
	}
	for i := 0; i < 4; i++ {
		c.Assign(fmt.Sprintf("football touchdown crowd cheering %d", i), at())
	}
	if c.Len() < 2 {
		t.Errorf("diameter-based split did not trigger: %d clusters", c.Len())
	}
}

// TestSplitReturnsHoldingCluster is TestDriftingClusterSplits' stream with
// one shared word, so that the football posts do join the marathon cluster
// (there they share nothing with its centroid and seed their own). The
// first one stretches the diameter past the threshold, is the split's far
// seed and moves to the new cluster: the ID it is reported under must be
// the new cluster's, not the one it left.
func TestSplitReturnsHoldingCluster(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JoinThreshold = 0.99
	cfg.SplitDiameter = 0.8
	c := New(cfg)
	var marathon string
	for i := 0; i < 4; i++ {
		marathon, _ = c.Assign(fmt.Sprintf("marathon explosion smoke everywhere %d", i), at())
	}
	if c.Len() != 1 {
		t.Fatalf("%d clusters after the marathon posts, want 1", c.Len())
	}
	for i := 0; i < 4; i++ {
		football, _ := c.Assign(fmt.Sprintf("football touchdown crowd cheering marathon %d", i), at())
		if c.Len() != 2 {
			t.Fatalf("%d clusters after football post %d, want the one split into 2", c.Len(), i)
		}
		if football == marathon {
			t.Fatalf("football post %d is reported under the marathon cluster %s", i, marathon)
		}
		for _, cl := range c.Clusters() {
			if cl.Centroid["football"] != (cl.ID == football) || cl.Centroid["smoke"] != (cl.ID == marathon) {
				t.Errorf("cluster %s has centroid %v; football was assigned %s, marathon %s", cl.ID, cl.Centroid, football, marathon)
			}
		}
	}
}

// TestFailedSplitKeepsClusterIDsDense: a split that cannot separate its
// members (only possible below a zero diameter threshold) must not use up
// a cluster ID.
func TestFailedSplitKeepsClusterIDsDense(t *testing.T) {
	c := New(Config{JoinThreshold: 0.7, SplitDiameter: -1})
	for i := 0; i < 6; i++ {
		if id, _ := c.Assign("bomb threat at the jfk library", at()); id != "cluster-0" || c.Len() != 1 {
			t.Fatalf("identical post %d: assigned %s with %d clusters", i, id, c.Len())
		}
	}
	if id, _ := c.Assign("quarterback injured in the football game", at()); id != "cluster-1" {
		t.Errorf("second cluster is %s, want cluster-1", id)
	}
}

func TestClusterSizesConserved(t *testing.T) {
	c := New(DefaultConfig())
	n := 50
	topics := []string{
		"explosion at the marathon finish line",
		"suspect seen near the library",
		"bridge closed by police",
	}
	for i := 0; i < n; i++ {
		c.Assign(topics[i%len(topics)]+fmt.Sprintf(" extra%d", i%7), at())
	}
	total := 0
	for _, cl := range c.Clusters() {
		total += cl.Size
	}
	if total != n {
		t.Errorf("sum of cluster sizes = %d, want %d (posts conserved)", total, n)
	}
}

func TestManyPostsBoundedMemory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxMembersTracked = 8
	c := New(cfg)
	for i := 0; i < 1000; i++ {
		c.Assign("bomb threat at the jfk library", at().Add(time.Duration(i)*time.Second))
	}
	snap := c.Clusters()
	if snap[0].Size != 1000 {
		t.Errorf("size = %d, want 1000", snap[0].Size)
	}
}

func TestCompactMergesFragments(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JoinThreshold = 0.4 // tight: fragments form easily
	c := New(cfg)
	// Two phrasings of the same topic that are just over the tight join
	// threshold from each other seed separate clusters.
	c.Assign("explosion at the boston marathon finish line", at())
	c.Assign("boston marathon explosion reported near the finish", at())
	if c.Len() < 2 {
		t.Skip("posts merged at assignment under this threshold")
	}
	// Loosen the threshold and compact.
	c.cfg.JoinThreshold = 0.75
	total := 0
	for _, cl := range c.Clusters() {
		total += cl.Size
	}
	merges := c.Compact()
	if merges == 0 {
		t.Fatal("no merges performed")
	}
	afterTotal := 0
	for _, cl := range c.Clusters() {
		afterTotal += cl.Size
	}
	if afterTotal != total {
		t.Errorf("members lost in compaction: %d -> %d", total, afterTotal)
	}
	if got := c.Compact(); got != 0 {
		t.Errorf("second compaction merged %d more", got)
	}
}

func TestCompactNoOpOnDistinctTopics(t *testing.T) {
	c := New(DefaultConfig())
	c.Assign("explosion at the marathon finish line", at())
	c.Assign("quarterback injured in the football game", at())
	if got := c.Compact(); got != 0 {
		t.Errorf("unrelated clusters merged: %d", got)
	}
	if c.Len() != 2 {
		t.Errorf("clusters = %d, want 2", c.Len())
	}
}

func TestZeroMaxMembersDefaulted(t *testing.T) {
	c := New(Config{JoinThreshold: 0.7, SplitDiameter: 0.9})
	if _, ok := c.Assign("hello world", at()); !ok {
		t.Error("assign failed with defaulted config")
	}
}

// TestWithinExact checks the join's bound: for the configured join
// threshold, odd thresholds, and every distance two sets of up to 16
// tokens can be apart, within admits exactly the shared counts whose
// Jaccard distance is within the threshold, for sets of up to 24 tokens.
func TestWithinExact(t *testing.T) {
	ds := map[float64]bool{0.7: true, 0: true, 1: true, 0.3: true, 0.5: true, -0.5: true, 2: true, 1 - 1e-15: true, math.Inf(1): true, math.Inf(-1): true}
	for na := 0; na <= 16; na++ {
		for nb := 0; nb <= 16; nb++ {
			for k := 0; k <= min(na, nb); k++ {
				ds[1-textutil.JaccardCount(k, na, nb)] = true
			}
		}
	}
	check := func(d float64) {
		for na := 0; na <= 24; na++ {
			for nb := 0; nb <= 24; nb++ {
				need := within(na, nb, d)
				for k := 0; k <= min(na, nb); k++ {
					if pass := 1-textutil.JaccardCount(k, na, nb) <= d; pass != (k >= need) {
						t.Fatalf("threshold %v: sizes %d, %d sharing %d pass %v, least count %d", d, na, nb, k, pass, need)
					}
				}
			}
		}
	}
	for d := range ds {
		check(d)
	}
	check(math.NaN())
}

// TestJoinNeedMatchesWithin holds the clusterer's memo of the join's least
// shared count to within itself for every pair of sizes below 64 and a
// few past it, asked twice (filled, then read), at the default and odd
// join thresholds.
func TestJoinNeedMatchesWithin(t *testing.T) {
	for _, d := range []float64{0.7, 0, 0.3, 0.5, 1, 1 - 1e-15, -0.5, 2, math.NaN()} {
		cfg := DefaultConfig()
		cfg.JoinThreshold = d
		c := New(cfg)
		for pass := 0; pass < 2; pass++ {
			for na := 0; na < 67; na++ {
				for nb := 0; nb < 67; nb++ {
					if got, want := c.need(na, nb), within(na, nb, d); got != want {
						t.Fatalf("threshold %v pass %d: need(%d, %d) = %d, within gives %d", d, pass, na, nb, got, want)
					}
				}
			}
		}
	}
}

// TestSharedCountsMatchIntersections holds the counts adjust leaves for
// each member, by byte lanes or by the bit loop, to the member's
// intersection with the post just added: at every sample size from 1 to 64
// members (one mask word, byte lanes), at 70 (two words, the bit loop), and
// for posts of 256 tokens and more (the bit loop, as a lane would
// overflow), while the sample fills and rotates.
func TestSharedCountsMatchIntersections(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	post := func(n, vocab int) textutil.Doc {
		words := make([]string, n)
		for i, w := range rng.Perm(vocab)[:n] {
			words[i] = fmt.Sprint("w", w)
		}
		return textutil.NewDoc(strings.Join(words, " "))
	}
	for _, size := range append(rng.Perm(64), 69) {
		cfg := DefaultConfig()
		cfg.MaxMembersTracked = size + 1
		c := New(cfg)
		cl, big := c.newCluster(at()), 0
		for step := 0; step < 3*(size+1)+20; step++ {
			d := post(1+rng.Intn(12), 60)
			if step%17 == 5 { // two of these share 256 tokens or more
				n := 264 + rng.Intn(30)
				d, big = post(n, n+8), big+1
			}
			added := c.add(cl, &d)
			for j, m := range cl.members {
				if want, _ := textutil.Overlap(d.Set, m.Set, 0); j != added && c.inter[j] != want {
					t.Fatalf("%d members, step %d: member %d shares %d tokens with a %d-token post, counted %d", size+1, step, j, want, len(d.Set), c.inter[j])
				}
			}
		}
		if big == 0 {
			t.Fatal("no post of 256 tokens or more")
		}
	}
}
