// Package clustering implements the paper's online claim generator
// (§V-A2): a streaming variant of K-means over micro-blog text using
// Jaccard distance. A newly arrived post joins the nearest existing
// cluster if it is close enough, otherwise it seeds a new cluster; a
// cluster whose diameter exceeds a threshold is split in two.
//
// Each cluster keeps a bounded sample of its members and, derived from it,
// each token's bitmask of members, the pairwise distances with each row's
// maximum, and the centroid. One sorted merge per post moves a member's
// bit from the rotated-out post's tokens to the new post's and counts the
// tokens the new post shares with each member, so a distance is one
// division and the diameter a scan of the row maxima.
package clustering

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
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
	// pre-specified event keywords). Keywords are tokenized as posts are,
	// so "#Boston" and "boston" are one keyword, and an entry of several
	// words matches a post holding any one of them.
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
	// rows[i] is the largest dist from member i to a later member (-1 for
	// the last member) and the first member at that dist.
	rows []rowMax
	// tokens holds, for every token of the sample in hash order, its hash
	// and then the bitmask of the members holding it: stride words each.
	tokens []uint64
	// centroid is the tokens found in at least half the members (a
	// medoid-like set centroid suited to Jaccard space), or every token
	// of the sample when no token is that common; union says which.
	centroid []uint64
	union    bool
	sig      uint64 // textutil.Sig of centroid
}

type rowMax struct {
	d float64
	j int
}

// Clusterer assigns posts to clusters online. Not safe for concurrent use.
type Clusterer struct {
	cfg      Config
	keywords []uint64
	clusters []*cluster
	nextID   int
	// inter[j] is how many tokens the post being added shares with member j.
	inter []int
	// joinNeed[na][nb] is 1 + within(na, nb, JoinThreshold), 0 until asked.
	joinNeed [64][64]uint8
}

// New returns a Clusterer with the given configuration.
func New(cfg Config) *Clusterer {
	if cfg.MaxMembersTracked <= 0 {
		cfg.MaxMembersTracked = 32
	}
	keywords := textutil.NewDoc(strings.Join(cfg.Keywords, " ")).Set
	return &Clusterer{cfg: cfg, keywords: keywords, inter: make([]int, cfg.MaxMembersTracked)}
}

// stride is the words per token in cluster.tokens: hash, then 64 members a word.
func (c *Clusterer) stride() int { return 1 + (c.cfg.MaxMembersTracked+63)/64 }

// Assign routes text observed at time t into a cluster and returns the
// cluster ID. It returns ok=false when the post is filtered out by the
// keyword list.
func (c *Clusterer) Assign(text string, t time.Time) (clusterID string, ok bool) {
	d := textutil.NewDoc(text)
	return c.AssignDoc(&d, t)
}

// AssignDoc is Assign for a post that is already tokenized.
func (c *Clusterer) AssignDoc(d *textutil.Doc, t time.Time) (clusterID string, ok bool) {
	if len(c.cfg.Keywords) > 0 && !d.HasAny(c.keywords) {
		return "", false
	}
	// A centroid within the join threshold shares at least its need, and
	// then Overlap's count is exact: the distance is monotone in it.
	var best *cluster
	bestDist, sig := c.cfg.JoinThreshold, textutil.Sig(d.Set)
	for _, cl := range c.clusters {
		need := c.need(len(d.Set), len(cl.centroid))
		if textutil.SharedBound(len(d.Set), sig, len(cl.centroid), cl.sig) < need {
			continue
		}
		if inter, ok := textutil.Overlap(d.Set, cl.centroid, need); ok {
			if dist := 1 - textutil.JaccardCount(inter, len(d.Set), len(cl.centroid)); dist <= bestDist {
				best, bestDist = cl, dist
			}
		}
	}
	if best == nil {
		best = c.newCluster(t)
		c.clusters = append(c.clusters, best)
	}
	at := c.add(best, d)
	if len(best.members) >= 4 {
		if ai, bi, diameter := best.farthest(); diameter > c.cfg.SplitDiameter {
			best = c.split(best, ai, bi, at)
		}
	}
	return best.id, true
}

// within is MinOverlap for a Jaccard distance of at most d: its walk settles
// the rounding of 1 − d on the distance expression, monotone in the count.
func within(na, nb int, d float64) int {
	k := textutil.MinOverlap(na, nb, 1-d)
	for k > 0 && 1-textutil.JaccardCount(k-1, na, nb) <= d {
		k--
	}
	for k <= min(na, nb) && !(1-textutil.JaccardCount(k, na, nb) <= d) {
		k++
	}
	return k
}

// need is within(na, nb, JoinThreshold), memoized for sets of fewer than
// 64 hashes.
func (c *Clusterer) need(na, nb int) int {
	if max(na, nb) >= len(c.joinNeed) {
		return within(na, nb, c.cfg.JoinThreshold)
	}
	p := &c.joinNeed[na][nb]
	if *p == 0 {
		*p = uint8(within(na, nb, c.cfg.JoinThreshold) + 1)
	}
	return int(*p) - 1
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
			for i, h := range m.Hashes {
				if _, ok := slices.BinarySearch(cl.centroid, h); ok {
					centroid[m.Tokens[i]] = true
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

// add counts one more post in cl and puts it in the tracked sample, at the
// returned position: appended while the sample has room, then in place of
// the member a deterministic rotation picks, which keeps the sample fresh
// without randomness or unbounded growth.
func (c *Clusterer) add(cl *cluster, d *textutil.Doc) (at int) {
	max := c.cfg.MaxMembersTracked
	cl.size++
	var gone []uint64
	grew := len(cl.members) < max
	if at = len(cl.members); grew {
		cl.members = append(cl.members, *d)
		cl.dist = append(cl.dist, make([]float64, max)...)
		cl.rows = append(cl.rows, rowMax{d: -1})
	} else {
		at = cl.size % max
		gone = cl.members[at].Set
		cl.members[at] = *d
	}
	crossed := c.adjust(cl, gone, d.Set, at)
	// Fill row and column at. An earlier row only gains at as its maximum,
	// or is rescanned when at was its maximum and moved closer.
	for j := range cl.members {
		if j == at {
			continue
		}
		dist := 1 - textutil.JaccardCount(c.inter[j], len(d.Set), len(cl.members[j].Set))
		cl.dist[at*max+j], cl.dist[j*max+at] = dist, dist
		if r := &cl.rows[j]; j < at && (dist > r.d || dist == r.d && at < r.j) {
			*r = rowMax{dist, at}
		} else if j < at && r.j == at && dist < r.d {
			*r = cl.scanRow(j, max)
		}
	}
	cl.rows[at] = cl.scanRow(at, max)

	// The centroid is the tokens at least half the members hold or, when
	// none is that common, the union, which keeps it non-empty. It can
	// only move when the sample grew, a token crossed the half mark, or
	// it is the union.
	if !grew && !crossed && !cl.union {
		return at
	}
	s := c.stride()
	cl.centroid, cl.union = cl.centroid[:0], false
	for _, least := range [2]int{(len(cl.members) + 1) / 2, 1} {
		for k := 0; k < len(cl.tokens); k += s {
			if held(cl.tokens[k+1:k+s]) >= least {
				cl.centroid = append(cl.centroid, cl.tokens[k])
			}
		}
		if len(cl.centroid) > 0 {
			break
		}
		cl.union = true
	}
	cl.sig = textutil.Sig(cl.centroid)
	return at
}

// adjust moves member's bit from the tokens of gone, the post it held, to
// those of set, the post it now holds, in place in one merge over the three
// sorted lists; a token no member held is inserted, and one no member holds
// any more is dropped. It counts in c.inter the tokens of set each other
// member holds, and reports whether a token crossed the half mark of the
// sample. When one mask word holds the sample and set has fewer than 256
// tokens, each mask byte is spread to one bit a byte and added to eight
// words of byte lanes, one lane a member: no lane can carry into the next.
func (c *Clusterer) adjust(cl *cluster, gone, set []uint64, member int) (crossed bool) {
	clear(c.inter)
	s := c.stride()
	word, bit := 1+member/64, uint64(1)<<(member%64)
	half := (len(cl.members) + 1) / 2
	var lanes [8]uint64 // when bytewise, member j's count is byte j%8 of lanes[j/8]
	bytewise := s == 2 && len(set) < 256
	for k := 0; len(gone) > 0 || len(set) > 0; {
		h := ^uint64(0)
		if len(gone) > 0 {
			h = gone[0]
		}
		if len(set) > 0 {
			h = min(h, set[0])
		}
		for k < len(cl.tokens) && cl.tokens[k] < h {
			k += s
		}
		if k == len(cl.tokens) || cl.tokens[k] != h {
			cl.tokens = append(cl.tokens, make([]uint64, s)...)
			copy(cl.tokens[k+s:], cl.tokens[k:])
			clear(cl.tokens[k : k+s])
			cl.tokens[k] = h
		}
		tok := cl.tokens[k : k+s]
		was := held(tok[1:])
		if len(gone) > 0 && gone[0] == h {
			gone = gone[1:]
			tok[word] &^= bit
		}
		if len(set) > 0 && set[0] == h {
			set = set[1:]
			if bytewise { // bit i of each mask byte to the low bit of byte i
				for w := range (len(cl.members) + 7) / 8 {
					b := tok[1] >> (8 * w) & 0xff * 0x0101010101010101 & 0x8040201008040201
					lanes[w%8] += (b + 0x00406070787c7e7f) >> 7 & 0x0101010101010101
				}
			} else {
				for i, m := range tok[1:] {
					for ; m != 0; m &= m - 1 {
						c.inter[i*64+bits.TrailingZeros64(m)]++
					}
				}
			}
			tok[word] |= bit
		}
		now := held(tok[1:])
		crossed = crossed || (was >= half) != (now >= half)
		if now == 0 {
			cl.tokens = slices.Delete(cl.tokens, k, k+s)
		}
	}
	for j := 0; bytewise && j < len(cl.members); j++ {
		c.inter[j] = int(uint8(lanes[j/8%8] >> (j % 8 * 8)))
	}
	return crossed
}

// held counts the members a token's mask holds.
func held(mask []uint64) (n int) {
	for _, m := range mask {
		n += bits.OnesCount64(m)
	}
	return n
}

// scanRow returns row i's largest distance to a later member, first at it.
func (cl *cluster) scanRow(i, max int) rowMax {
	r := rowMax{d: -1}
	for j := i + 1; j < len(cl.members); j++ {
		if d := cl.dist[i*max+j]; d > r.d {
			r = rowMax{d, j}
		}
	}
	return r
}

// farthest returns the first pair of tracked members, in index order, that
// is farthest apart, and their Jaccard distance: the cluster's diameter.
func (cl *cluster) farthest() (ai, bi int, diameter float64) {
	ai, bi, diameter = 0, 1, -1
	for i, r := range cl.rows {
		if r.d > diameter {
			ai, bi, diameter = i, r.j, r.d
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
	for i := range keep {
		c.add(cl, &keep[i])
	}
	for i := range move {
		c.add(newCl, &move[i])
	}
	cl.size = size
	c.clusters = append(c.clusters, newCl)
	return holder
}
