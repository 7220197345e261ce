package clustering

import "github.com/social-sensing/sstd/internal/textutil"

// jaccard is the reference similarity |A∩B| / |A∪B| of two hash sets; two
// empty sets have similarity 1.
func jaccard(a, b []uint64) float64 {
	n, _ := textutil.Overlap(a, b, 0)
	return textutil.JaccardCount(n, len(a), len(b))
}

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
			if 1-jaccard(a.centroid, b.centroid) > c.cfg.JoinThreshold {
				continue
			}
			// Merge the smaller into the larger.
			if b.size > a.size {
				a, b = b, a
				c.clusters[i] = a
			}
			a.size += b.size
			for i := range b.members {
				c.add(a, &b.members[i])
				a.size-- // add already counted the member once
			}
			c.clusters = append(c.clusters[:j], c.clusters[j+1:]...)
			merges++
			j--
		}
	}
	return merges
}
