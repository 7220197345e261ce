package condor

import "sort"

// FreeCores reports total unclaimed cores across the pool.
func (c *Cluster) FreeCores() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, free := range c.free {
		total += free.Cores
	}
	return total
}

// TotalCores reports pool capacity.
func (c *Cluster) TotalCores() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, n := range c.nodes {
		total += n.Capacity.Cores
	}
	return total
}

// Nodes returns a copy of the node list sorted by name.
func (c *Cluster) Nodes() []Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]Node(nil), c.nodes...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
