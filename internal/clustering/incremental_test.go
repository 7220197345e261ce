package clustering

import (
	"fmt"
	"math/rand"
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
	counts := make(map[uint64]int)
	for _, m := range cl.members {
		for _, h := range m.Set {
			counts[h]++
		}
	}
	if len(cl.counts) != len(counts) {
		t.Fatalf("%s: %d token counts, members hold %d distinct tokens", cl.id, len(cl.counts), len(counts))
	}
	for i, tc := range cl.counts {
		if tc.n != counts[tc.hash] || (i > 0 && cl.counts[i-1].hash >= tc.hash) {
			t.Fatalf("%s: counts[%d] = %+v, members give %d (or order broken)", cl.id, i, tc, counts[tc.hash])
		}
	}
	var want []string
	for tok := range refCentroid(cl.members) {
		want = append(want, tok)
	}
	if got, want := fmt.Sprint(cl.centroid), fmt.Sprint(textutil.HashSet(want)); got != want {
		t.Fatalf("%s: centroid %s, from scratch %s", cl.id, got, want)
	}
	diameter := 0.0
	for i, a := range cl.members {
		for j, b := range cl.members {
			want := refDistance(refSet(a), refSet(b))
			if got := cl.dist[i*max+j]; got != want {
				t.Fatalf("%s: dist[%d][%d] = %v, from scratch %v", cl.id, i, j, got, want)
			}
			if want > diameter {
				diameter = want
			}
		}
	}
	if _, _, got := cl.farthest(max); len(cl.members) > 1 && got != diameter {
		t.Fatalf("%s: diameter %v, from scratch %v", cl.id, got, diameter)
	}
}

// TestIncrementalMatchesFromScratch drives Assign and Compact with seeded
// random streams over a sample small enough that rotation, split and merge
// all fire, and after every step checks each cluster's counts, centroid,
// distance matrix and diameter against a from-scratch rebuild, the join
// decision against the reference centroids, and that the returned ID names
// the cluster now tracking the post.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	topics := [][]string{
		{"marathon", "explosion", "smoke", "finish", "line", "boston"},
		{"football", "touchdown", "crowd", "irish", "lead", "score"},
		{"library", "suspect", "backpack", "police", "campus", "lockdown"},
	}
	var rotations, splits, merges int
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{JoinThreshold: 0.8, SplitDiameter: 0.85, MaxMembersTracked: 5}
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
			id, ok := c.AssignDoc(d, at())
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
	if rotations == 0 || splits == 0 || merges == 0 {
		t.Errorf("streams fired %d rotations, %d splits, %d merges; the test needs all three", rotations, splits, merges)
	}
}
