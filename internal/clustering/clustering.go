// Package clustering implements the paper's online claim generator
// (§V-A2): a streaming variant of K-means over micro-blog text using
// Jaccard distance. A newly arrived post joins the nearest existing
// cluster if it is close enough, otherwise it seeds a new cluster; a
// cluster whose diameter exceeds a threshold is split in two.
//
// Each cluster keeps a bounded sample of its members and, derived from
// that sample, their pairwise distances, per-token member counts and the
// centroid. All three are adjusted by the one member that arrives and the
// one it rotates out, never rebuilt from the whole sample.
package clustering

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/social-sensing/sstd/internal/textutil"
)

// Config tunes the online clusterer.
type Config struct {
	// JoinThreshold is the maximum Jaccard distance between a post and a
	// cluster centroid for the post to join the cluster.
	JoinThreshold float64
	// SplitDiameter is the cluster diameter (max pairwise distance among
	// sampled members) beyond which a cluster is split in two.
	SplitDiameter float64
	// MaxMembersTracked bounds the per-cluster member sample kept for
	// diameter estimation and splitting.
	MaxMembersTracked int
	// Keywords optionally filters posts: when non-empty, posts containing
	// none of the keywords are ignored (the paper first filters tweets by
	// pre-specified event keywords).
	Keywords []string
}

// DefaultConfig returns thresholds that work well for short tweet-length
// texts (learned from prior case studies per the paper).
func DefaultConfig() Config {
	return Config{
		JoinThreshold:     0.7,
		SplitDiameter:     0.9,
		MaxMembersTracked: 32,
	}
}

// Cluster is a snapshot of one group of similar posts, treated downstream
// as a claim.
type Cluster struct {
	ID string
	// Centroid is the tokens found in at least half the tracked members.
	Centroid map[string]bool
	Size     int
	Created  time.Time
}

// cluster is the clusterer's state for one claim.
type cluster struct {
	id      string
	size    int
	created time.Time
	// members is the tracked sample, at most MaxMembersTracked posts.
	members []textutil.Doc
	// dist holds one row of MaxMembersTracked entries per member:
	// dist[i*max+j] is the Jaccard distance between members i and j.
	dist []float64
	// counts says, for every token of the sample in hash order, how many
	// members contain it.
	counts []tokenCount
	// centroid is the tokens found in at least half the members (a
	// medoid-like set centroid suited to Jaccard space), or every token
	// of the sample when no token is that common.
	centroid []uint64
}

type tokenCount struct {
	hash uint64
	n    int
}

// Clusterer assigns posts to clusters online. Not safe for concurrent use.
type Clusterer struct {
	cfg      Config
	keywords []uint64
	clusters []*cluster
	nextID   int
	// spare is the counts slice the last adjust replaced, reused by the
	// next one.
	spare []tokenCount
}

// New returns a Clusterer with the given configuration.
func New(cfg Config) *Clusterer {
	if cfg.MaxMembersTracked <= 0 {
		cfg.MaxMembersTracked = 32
	}
	return &Clusterer{cfg: cfg, keywords: textutil.HashSet(cfg.Keywords)}
}

// Assign routes text observed at time t into a cluster and returns the
// cluster ID. It returns ok=false when the post is filtered out by the
// keyword list.
func (c *Clusterer) Assign(text string, t time.Time) (clusterID string, ok bool) {
	return c.AssignDoc(textutil.NewDoc(text), t)
}

// AssignDoc is Assign for a post that is already tokenized.
func (c *Clusterer) AssignDoc(d textutil.Doc, t time.Time) (clusterID string, ok bool) {
	if len(c.keywords) > 0 && !d.HasAny(c.keywords) {
		return "", false
	}
	var best *cluster
	bestDist := c.cfg.JoinThreshold
	for _, cl := range c.clusters {
		if dist := textutil.JaccardDistance(d.Set, cl.centroid); dist <= bestDist {
			best, bestDist = cl, dist
		}
	}
	if best == nil {
		best = c.newCluster(t)
		c.clusters = append(c.clusters, best)
	}
	at := c.add(best, d)
	if len(best.members) >= 4 {
		if ai, bi, diameter := best.farthest(c.cfg.MaxMembersTracked); diameter > c.cfg.SplitDiameter {
			best = c.split(best, ai, bi, at)
		}
	}
	return best.id, true
}

func (c *Clusterer) newCluster(created time.Time) *cluster {
	cl := &cluster{id: fmt.Sprintf("cluster-%d", c.nextID), created: created}
	c.nextID++
	return cl
}

// Clusters returns a snapshot of current clusters sorted by descending size.
func (c *Clusterer) Clusters() []Cluster {
	out := make([]Cluster, len(c.clusters))
	for i, cl := range c.clusters {
		centroid := make(map[string]bool, len(cl.centroid))
		for _, m := range cl.members {
			for _, tok := range m.Tokens {
				if _, ok := slices.BinarySearch(cl.centroid, textutil.Hash(tok)); ok {
					centroid[tok] = true
				}
			}
		}
		out[i] = Cluster{ID: cl.id, Centroid: centroid, Size: cl.size, Created: cl.created}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size != out[j].Size {
			return out[i].Size > out[j].Size
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len returns the number of clusters.
func (c *Clusterer) Len() int { return len(c.clusters) }

// Compact merges clusters whose centroids sit within the join threshold of
// each other — drift during streaming can fragment one topic into several
// clusters, and the claim generator benefits from periodically re-fusing
// them. Members and sizes of merged clusters are combined; the larger
// cluster's ID survives. Returns the number of merges performed.
func (c *Clusterer) Compact() int {
	merges := 0
	for i := 0; i < len(c.clusters); i++ {
		for j := i + 1; j < len(c.clusters); j++ {
			a, b := c.clusters[i], c.clusters[j]
			if textutil.JaccardDistance(a.centroid, b.centroid) > c.cfg.JoinThreshold {
				continue
			}
			// Merge the smaller into the larger.
			if b.size > a.size {
				a, b = b, a
				c.clusters[i] = a
			}
			a.size += b.size
			for _, m := range b.members {
				c.add(a, m)
				a.size-- // add already counted the member once
			}
			c.clusters = append(c.clusters[:j], c.clusters[j+1:]...)
			merges++
			j--
		}
	}
	return merges
}

// add counts one more post in cl and puts it in the tracked sample, at the
// returned position: appended while the sample has room, then in place of
// the member a deterministic rotation picks, which keeps the sample fresh
// without randomness or unbounded growth.
func (c *Clusterer) add(cl *cluster, d textutil.Doc) (at int) {
	max := c.cfg.MaxMembersTracked
	cl.size++
	if at = len(cl.members); at < max {
		cl.members = append(cl.members, d)
		cl.dist = append(cl.dist, make([]float64, max)...)
	} else {
		at = cl.size % max
		c.adjust(cl, cl.members[at].Set, -1)
		cl.members[at] = d
	}
	for j, m := range cl.members {
		if j != at {
			dist := textutil.JaccardDistance(d.Set, m.Set)
			cl.dist[at*max+j], cl.dist[j*max+at] = dist, dist
		}
	}
	c.adjust(cl, d.Set, +1)

	threshold := (len(cl.members) + 1) / 2
	cl.centroid = cl.centroid[:0]
	for _, tc := range cl.counts {
		if tc.n >= threshold {
			cl.centroid = append(cl.centroid, tc.hash)
		}
	}
	if len(cl.centroid) == 0 {
		// Degenerate case (no common tokens): fall back to the union to
		// keep the centroid non-empty.
		for _, tc := range cl.counts {
			cl.centroid = append(cl.centroid, tc.hash)
		}
	}
	return at
}

// adjust adds delta to the member count of every token in set, one merge
// over the two sorted lists; a token whose count reaches zero is dropped.
func (c *Clusterer) adjust(cl *cluster, set []uint64, delta int) {
	out := c.spare[:0]
	old := cl.counts
	for _, h := range set {
		for len(old) > 0 && old[0].hash < h {
			out = append(out, old[0])
			old = old[1:]
		}
		tc := tokenCount{hash: h}
		if len(old) > 0 && old[0].hash == h {
			tc, old = old[0], old[1:]
		}
		if tc.n += delta; tc.n > 0 {
			out = append(out, tc)
		}
	}
	out = append(out, old...)
	cl.counts, c.spare = out, cl.counts
}

// farthest returns the first pair of tracked members, in index order, that
// is farthest apart, and their Jaccard distance: the cluster's diameter.
func (cl *cluster) farthest(max int) (ai, bi int, diameter float64) {
	ai, bi, diameter = 0, 1, -1
	for i := range cl.members {
		for j := i + 1; j < len(cl.members); j++ {
			if d := cl.dist[i*max+j]; d > diameter {
				ai, bi, diameter = i, j, d
			}
		}
	}
	return ai, bi, diameter
}

// split breaks cl in two around its two most distant members ai and bi,
// mirroring the paper's "a cluster will be broken into two clusters if the
// diameter is larger than a threshold" rule. It returns whichever of the
// two now tracks the member that was at position at.
func (c *Clusterer) split(cl *cluster, ai, bi, at int) *cluster {
	max := c.cfg.MaxMembersTracked
	moves := func(i int) bool { return cl.dist[i*max+bi] < cl.dist[i*max+ai] }
	var keep, move []textutil.Doc
	for i, m := range cl.members {
		if moves(i) {
			move = append(move, m)
		} else {
			keep = append(keep, m)
		}
	}
	if len(move) == 0 || len(keep) == 0 {
		return cl // split failed to separate; keep as-is
	}
	holder, newCl := cl, c.newCluster(cl.created)
	if moves(at) {
		holder = newCl
	}
	size := cl.size - len(move)
	*cl = cluster{id: cl.id, created: cl.created}
	for _, m := range keep {
		c.add(cl, m)
	}
	for _, m := range move {
		c.add(newCl, m)
	}
	cl.size = size
	c.clusters = append(c.clusters, newCl)
	return holder
}
