package clustering

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/social-sensing/sstd/internal/textutil"
)

// The reference side of TestIncrementalMatchesFromScratch: token sets as
// map[string]bool over the token strings (no hashes), and every derived
// quantity rebuilt from the tracked members alone.

func refSet(d textutil.Doc) map[string]bool {
	s := make(map[string]bool)
	for _, tok := range d.Tokens {
		s[tok] = true
	}
	return s
}

func refDistance(a, b map[string]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	for tok := range a {
		if b[tok] {
			inter++
		}
	}
	return 1 - float64(inter)/float64(len(a)+len(b)-inter)
}

// refCentroid is the tokens in at least half the members, or all of them
// when none is that common.
func refCentroid(members []textutil.Doc) map[string]bool {
	counts := make(map[string]int)
	for _, m := range members {
		for tok := range refSet(m) {
			counts[tok]++
		}
	}
	centroid := make(map[string]bool)
	for tok, n := range counts {
		if n >= (len(members)+1)/2 {
			centroid[tok] = true
		}
	}
	if len(centroid) == 0 {
		for tok := range counts {
			centroid[tok] = true
		}
	}
	return centroid
}

// checkCluster requires cl's incremental state to equal what its tracked
// members give from scratch.
func checkCluster(t *testing.T, c *Clusterer, cl *cluster) {
	t.Helper()
	max := c.cfg.MaxMembersTracked
	if len(cl.members) == 0 || len(cl.members) > max || len(cl.members) > cl.size {
		t.Fatalf("%s: %d tracked members for size %d, max %d", cl.id, len(cl.members), cl.size, max)
	}
	// Tokens in strict hash order, each with the mask of the members
	// holding it, one word per 64 tracked members.
	stride := c.stride()
	masks := make(map[uint64][]uint64)
	for j, m := range cl.members {
		for _, h := range m.Set {
			if masks[h] == nil {
				masks[h] = make([]uint64, stride-1)
			}
			masks[h][j/64] |= 1 << (j % 64)
		}
	}
	if len(cl.tokens) != len(masks)*stride {
		t.Fatalf("%s: %d token words, members hold %d distinct tokens at %d words each", cl.id, len(cl.tokens), len(masks), stride)
	}
	for k := 0; k < len(cl.tokens); k += stride {
		h, got := cl.tokens[k], cl.tokens[k+1:k+stride]
		if k > 0 && cl.tokens[k-stride] >= h {
			t.Fatalf("%s: token %d out of hash order", cl.id, k/stride)
		}
		if want := masks[h]; !slices.Equal(got, want) {
			t.Fatalf("%s: token %d's mask %x, members give %x", cl.id, k/stride, got, want)
		}
	}
	var want []string
	for tok := range refCentroid(cl.members) {
		want = append(want, tok)
	}
	if got, want := fmt.Sprint(cl.centroid), fmt.Sprint(textutil.HashSet(want)); got != want {
		t.Fatalf("%s: centroid %s, from scratch %s", cl.id, got, want)
	}
	// The distances, each row's maximum over later members and the first
	// farthest pair, all by brute force.
	sets := make([]map[string]bool, len(cl.members))
	for i, m := range cl.members {
		sets[i] = refSet(m)
	}
	ai, bi, diameter := 0, 1, -1.0
	for i, a := range sets {
		row := rowMax{d: -1}
		for j := i; j < len(sets); j++ {
			want := refDistance(a, sets[j])
			if got, sym := cl.dist[i*max+j], cl.dist[j*max+i]; got != want || sym != want {
				t.Fatalf("%s: dist[%d][%d] = %v and back %v, from scratch %v", cl.id, i, j, got, sym, want)
			}
			if j > i && want > row.d {
				row = rowMax{want, j}
			}
			if j > i && want > diameter {
				ai, bi, diameter = i, j, want
			}
		}
		if cl.rows[i] != row {
			t.Fatalf("%s: row %d keeps %+v, from scratch %+v", cl.id, i, cl.rows[i], row)
		}
	}
	if len(cl.rows) != len(cl.members) {
		t.Fatalf("%s: %d row maxima for %d members", cl.id, len(cl.rows), len(cl.members))
	}
	if gotA, gotB, got := cl.farthest(); len(cl.members) > 1 && (gotA != ai || gotB != bi || got != diameter) {
		t.Fatalf("%s: farthest pair (%d, %d) at %v, from scratch (%d, %d) at %v", cl.id, gotA, gotB, got, ai, bi, diameter)
	}
}

// TestIncrementalMatchesFromScratch drives Assign and Compact with seeded
// random streams, at a sample of 5 members and at one of 70 (member masks
// two words wide), such that rotation, split and merge all fire and the
// sample fills. After every step it checks each cluster's token masks,
// centroid, distance matrix, row maxima and first farthest pair against a
// from-scratch rebuild, the join decision against the reference centroids,
// and that the returned ID names the cluster now tracking the post.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	topics := [][]string{
		{"marathon", "explosion", "smoke", "finish", "line", "boston"},
		{"football", "touchdown", "crowd", "irish", "lead", "score"},
		{"library", "suspect", "backpack", "police", "campus", "lockdown"},
	}
	for _, tracked := range []int{5, 70} {
		t.Run(fmt.Sprintf("max=%d", tracked), func(t *testing.T) {
			cfg := Config{JoinThreshold: 0.8, SplitDiameter: 0.85, MaxMembersTracked: tracked}
			incrementalStreams(t, topics, cfg)
		})
	}
}

// TestUnionCentroidFollowsRotation keeps one cluster whose members share
// no token, so from three members on its centroid is the every-token
// fallback, and rotates posts through it: every add moves that centroid
// although no token crosses the half mark, and checkCluster compares it
// with a rebuild after each one.
func TestUnionCentroidFollowsRotation(t *testing.T) {
	c := New(Config{JoinThreshold: 1, SplitDiameter: 2, MaxMembersTracked: 4})
	for i := 0; i < 12; i++ {
		c.Assign(fmt.Sprintf("a%d b%d", i, i), at())
		if c.Len() != 1 {
			t.Fatalf("post %d: %d clusters, want 1", i, c.Len())
		}
		cl := c.clusters[0]
		checkCluster(t, c, cl)
		if cl.union != (i >= 2) {
			t.Fatalf("post %d: centroid is the union %v with %d members", i, cl.union, len(cl.members))
		}
	}
}

// incrementalStreams is TestIncrementalMatchesFromScratch at one config.
func incrementalStreams(t *testing.T, topics [][]string, cfg Config) {
	var rotations, splits, merges, widest int
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New(cfg)
		for step := 0; step < 400; step++ {
			// Three or four words of one topic, sometimes one borrowed
			// from the next, and a token no other post has.
			topic := rng.Intn(len(topics))
			words := []string{fmt.Sprintf("u%d", step)}
			for n := 3 + rng.Intn(2); n > 0; n-- {
				words = append(words, topics[topic][rng.Intn(6)])
			}
			if rng.Intn(4) == 0 {
				words = append(words, topics[(topic+1)%len(topics)][rng.Intn(6)])
			}
			d := textutil.NewDoc(strings.Join(words, " "))

			var join *cluster
			best := cfg.JoinThreshold
			for _, cl := range c.clusters {
				if dist := refDistance(refSet(d), refCentroid(cl.members)); dist <= best {
					join, best = cl, dist
				}
			}
			before := c.Len()
			id, ok := c.AssignDoc(&d, at())
			if !ok {
				t.Fatalf("seed %d step %d: post filtered with no keywords set", seed, step)
			}
			switch {
			case join == nil && c.Len() != before+1:
				t.Fatalf("seed %d step %d: post is beyond every centroid, yet %d clusters became %d", seed, step, before, c.Len())
			case join != nil && c.Len() == before+1:
				splits++
			case join != nil && (c.Len() != before || id != join.id):
				t.Fatalf("seed %d step %d: post joined %s, reference says %s", seed, step, id, join.id)
			}
			holders := 0
			for _, cl := range c.clusters {
				checkCluster(t, c, cl)
				if cl.size > cfg.MaxMembersTracked {
					rotations++
				}
				widest = max(widest, len(cl.members))
				for _, m := range cl.members {
					if m.Lower == d.Lower {
						holders++
						if cl.id != id {
							t.Fatalf("seed %d step %d: Assign returned %s, the post is tracked by %s", seed, step, id, cl.id)
						}
					}
				}
			}
			if holders != 1 {
				t.Fatalf("seed %d step %d: post tracked by %d clusters", seed, step, holders)
			}
			if step%25 == 24 {
				merges += c.Compact()
				for _, cl := range c.clusters {
					checkCluster(t, c, cl)
				}
			}
		}
	}
	if rotations == 0 || splits == 0 || merges == 0 || widest < cfg.MaxMembersTracked {
		t.Errorf("streams fired %d rotations, %d splits, %d merges and filled %d of %d tracked members; the test needs all four",
			rotations, splits, merges, widest, cfg.MaxMembersTracked)
	}
	t.Logf("%d rotations, %d splits, %d merges, widest sample %d", rotations, splits, merges, widest)
}
