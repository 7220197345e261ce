// Package condor simulates the HTCondor pool the paper deploys SSTD on
// (§IV-A1): a cluster of heterogeneous machines with per-node resource
// constraints (cores, memory, disk) and differing speeds, a matchmaker
// that places worker requests onto machines, and a virtual-time executor
// used to study scheduling behaviour at scales (hundreds of workers,
// millions of tweets) that exceed the test machine — the substitution for
// Notre Dame's 1,900-machine pool documented in DESIGN.md.
package condor

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Resources describes capacity or a request (the paper's RC_k constraint
// vector).
type Resources struct {
	Cores    int
	MemoryMB int
	DiskMB   int
}

// Fits reports whether r can accommodate req.
func (r Resources) Fits(req Resources) bool {
	return r.Cores >= req.Cores && r.MemoryMB >= req.MemoryMB && r.DiskMB >= req.DiskMB
}

// sub subtracts req (caller checks Fits).
func (r Resources) sub(req Resources) Resources {
	return Resources{
		Cores:    r.Cores - req.Cores,
		MemoryMB: r.MemoryMB - req.MemoryMB,
		DiskMB:   r.DiskMB - req.DiskMB,
	}
}

func (r Resources) add(req Resources) Resources {
	return Resources{
		Cores:    r.Cores + req.Cores,
		MemoryMB: r.MemoryMB + req.MemoryMB,
		DiskMB:   r.DiskMB + req.DiskMB,
	}
}

// Node is one machine in the pool.
type Node struct {
	Name     string
	Capacity Resources
	// SpeedFactor scales execution speed: 1.0 is the reference machine,
	// 2.0 finishes work twice as fast. Captures pool heterogeneity.
	SpeedFactor float64
}

// Slot is a claimed allocation on a node, returned by the matchmaker.
type Slot struct {
	ID    int
	Node  string
	Req   Resources
	Speed float64
}

// Cluster tracks nodes and outstanding claims. It is safe for concurrent
// use.
type Cluster struct {
	mu     sync.Mutex
	nodes  []Node
	free   map[string]Resources
	slots  map[int]Slot
	nextID int
}

// ErrNoMatch is returned when no node can satisfy a claim.
var ErrNoMatch = errors.New("condor: no node satisfies the resource request")

// NewCluster builds a cluster from the node list.
func NewCluster(nodes []Node) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, errors.New("condor: cluster needs at least one node")
	}
	c := &Cluster{
		nodes: append([]Node(nil), nodes...),
		free:  make(map[string]Resources, len(nodes)),
		slots: make(map[int]Slot),
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n.Name == "" {
			return nil, errors.New("condor: node without a name")
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("condor: duplicate node %q", n.Name)
		}
		if n.SpeedFactor <= 0 {
			return nil, fmt.Errorf("condor: node %q speed factor %v must be positive", n.Name, n.SpeedFactor)
		}
		seen[n.Name] = true
		c.free[n.Name] = n.Capacity
	}
	return c, nil
}

// NewHeterogeneousCluster builds a deterministic pseudo-random pool of n
// machines mixing workstation-class (1-4 cores, slow) and server-class
// (8-32 cores, fast) nodes, mirroring the desktop/classroom/server mix of
// the Notre Dame pool.
func NewHeterogeneousCluster(n int, seed int64) (*Cluster, error) {
	if n < 1 {
		return nil, errors.New("condor: need at least one node")
	}
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]Node, n)
	for i := range nodes {
		if rng.Float64() < 0.7 {
			// Workstation: idle desktop or classroom machine.
			nodes[i] = Node{
				Name:        fmt.Sprintf("ws-%03d", i),
				Capacity:    Resources{Cores: 1 + rng.Intn(4), MemoryMB: 2048 + 2048*rng.Intn(3), DiskMB: 50_000},
				SpeedFactor: 0.6 + 0.4*rng.Float64(),
			}
		} else {
			// Server-class machine.
			nodes[i] = Node{
				Name:        fmt.Sprintf("srv-%03d", i),
				Capacity:    Resources{Cores: 8 + 8*rng.Intn(4), MemoryMB: 16_384 + 16_384*rng.Intn(4), DiskMB: 500_000},
				SpeedFactor: 1.0 + rng.Float64(),
			}
		}
	}
	return NewCluster(nodes)
}

// Claim places a resource request on the best-fitting node (the one whose
// remaining capacity after placement is smallest, to preserve large slots)
// preferring faster machines among equal fits.
func (c *Cluster) Claim(req Resources) (Slot, error) {
	if req.Cores <= 0 {
		req.Cores = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	bestIdx := -1
	bestLeftCores := 1 << 30
	bestSpeed := 0.0
	for i, n := range c.nodes {
		free := c.free[n.Name]
		if !free.Fits(req) {
			continue
		}
		left := free.Cores - req.Cores
		if left < bestLeftCores || (left == bestLeftCores && n.SpeedFactor > bestSpeed) {
			bestIdx = i
			bestLeftCores = left
			bestSpeed = n.SpeedFactor
		}
	}
	if bestIdx == -1 {
		return Slot{}, ErrNoMatch
	}
	node := c.nodes[bestIdx]
	c.free[node.Name] = c.free[node.Name].sub(req)
	c.nextID++
	s := Slot{ID: c.nextID, Node: node.Name, Req: req, Speed: node.SpeedFactor}
	c.slots[s.ID] = s
	return s, nil
}

// ClaimN claims up to n single-core slots and returns those granted.
func (c *Cluster) ClaimN(n int, req Resources) []Slot {
	out := make([]Slot, 0, n)
	for i := 0; i < n; i++ {
		s, err := c.Claim(req)
		if err != nil {
			break
		}
		out = append(out, s)
	}
	return out
}

// Release returns a slot's resources to its node.
func (c *Cluster) Release(s Slot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	stored, ok := c.slots[s.ID]
	if !ok {
		return fmt.Errorf("condor: slot %d not claimed", s.ID)
	}
	delete(c.slots, s.ID)
	c.free[stored.Node] = c.free[stored.Node].add(stored.Req)
	return nil
}
