// Package claimdep implements the claim-dependency extension the paper
// lists as future work (§VII): "explicitly model the correlation between
// different claims and incorporate such correlation into the HMM based
// model". Claims about the same physical situation — weather in nearby
// cities, casualty counts and hospital load, the score and the crowd noise
// — carry evidence for each other.
//
// The model is a two-stage smoother over the per-claim HMM posteriors:
//
//  1. Estimate pairwise claim correlation from the claims' evidence
//     (ACS) series with Pearson correlation over the co-observed
//     intervals.
//  2. Blend each claim's per-interval truth posterior with the posteriors
//     of its correlated neighbours, weighted by |correlation| and signed
//     by its direction (anti-correlated claims contribute flipped
//     evidence), then re-threshold.
//
// Independence remains the default (Blend weight 0 recovers the paper's
// per-claim model), so the distributed per-claim decomposition is
// preserved: correlation smoothing is a cheap post-pass over posterior
// vectors, not a coupling inside Baum-Welch — which is exactly the
// "maintain correlation when the task is distributed" challenge the paper
// points out, solved by exchanging only posterior summaries.
package claimdep

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/social-sensing/sstd/internal/socialsensing"
)

// Correlation is one pairwise claim dependency.
type Correlation struct {
	A, B socialsensing.ClaimID
	// R is the Pearson correlation of the two claims' evidence series
	// over their co-observed intervals, in [-1, 1].
	R float64
	// Support is the number of co-observed intervals R was computed on.
	Support int
}

// Config tunes the dependency model.
type Config struct {
	// MinAbsCorrelation drops weaker pairs from the graph. Default 0.4.
	MinAbsCorrelation float64
	// MinSupport is the minimum number of co-observed intervals required
	// to trust a correlation. Default 8.
	MinSupport int
	// Blend is the weight of neighbour evidence when smoothing
	// posteriors, in [0, 1); 0 disables the dependency model. Default
	// 0.25.
	Blend float64
	// MaxNeighbors bounds how many strongest neighbours contribute per
	// claim. Default 4.
	MaxNeighbors int
}

// DefaultConfig returns the default dependency-model settings.
func DefaultConfig() Config {
	return Config{
		MinAbsCorrelation: 0.4,
		MinSupport:        8,
		Blend:             0.25,
		MaxNeighbors:      4,
	}
}

func (c Config) validate() error {
	if c.Blend < 0 || c.Blend >= 1 {
		return fmt.Errorf("claimdep: blend %v outside [0, 1)", c.Blend)
	}
	if c.MinAbsCorrelation < 0 || c.MinAbsCorrelation > 1 {
		return fmt.Errorf("claimdep: min correlation %v outside [0, 1]", c.MinAbsCorrelation)
	}
	if c.MinSupport < 2 {
		return fmt.Errorf("claimdep: min support %d too small", c.MinSupport)
	}
	if c.MaxNeighbors < 1 {
		return fmt.Errorf("claimdep: max neighbors %d too small", c.MaxNeighbors)
	}
	return nil
}

// Graph is the estimated claim dependency structure.
type Graph struct {
	cfg Config
	// neighbors maps a claim to its retained correlations, strongest
	// first.
	neighbors map[socialsensing.ClaimID][]Correlation
}

// ErrNoSeries is returned when the input carries no claims.
var ErrNoSeries = errors.New("claimdep: no claim series provided")

// EstimateGraph builds the dependency graph from per-claim evidence
// series. Series are aligned by index (interval number); lengths may
// differ — correlation uses the overlapping prefix. Intervals where both
// series are exactly zero are skipped, since a shared absence of reports
// says nothing about dependency.
func EstimateGraph(series map[socialsensing.ClaimID][]float64, cfg Config) (*Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(series) == 0 {
		return nil, ErrNoSeries
	}
	ids := make([]socialsensing.ClaimID, 0, len(series))
	for id := range series {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	g := &Graph{cfg: cfg, neighbors: make(map[socialsensing.ClaimID][]Correlation)}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			r, support := pearson(series[ids[i]], series[ids[j]])
			if support < cfg.MinSupport || math.Abs(r) < cfg.MinAbsCorrelation {
				continue
			}
			c := Correlation{A: ids[i], B: ids[j], R: r, Support: support}
			g.neighbors[ids[i]] = append(g.neighbors[ids[i]], c)
			g.neighbors[ids[j]] = append(g.neighbors[ids[j]], Correlation{A: ids[j], B: ids[i], R: r, Support: support})
		}
	}
	for id := range g.neighbors {
		ns := g.neighbors[id]
		sort.Slice(ns, func(a, b int) bool {
			if math.Abs(ns[a].R) != math.Abs(ns[b].R) {
				return math.Abs(ns[a].R) > math.Abs(ns[b].R)
			}
			return ns[a].B < ns[b].B
		})
		if len(ns) > cfg.MaxNeighbors {
			ns = ns[:cfg.MaxNeighbors]
		}
		g.neighbors[id] = ns
	}
	return g, nil
}

// Edges returns every retained pair once, strongest first.
func (g *Graph) Edges() []Correlation {
	var out []Correlation
	for id, ns := range g.neighbors {
		for _, c := range ns {
			if c.A == id && c.A < c.B {
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if math.Abs(out[i].R) != math.Abs(out[j].R) {
			return math.Abs(out[i].R) > math.Abs(out[j].R)
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Smooth blends each claim's truth posterior with its neighbours':
//
//	p'_c(t) = (1-blend)·p_c(t) + blend·Σ_n w_n · q_n(t)
//
// where w_n ∝ |R_n| over the claim's neighbours and q_n is the neighbour's
// posterior, flipped (1-p) for negative correlations. Posteriors are
// aligned by interval index; neighbours without an estimate at t
// contribute nothing. The returned map contains new slices.
func (g *Graph) Smooth(posteriors map[socialsensing.ClaimID][]float64) map[socialsensing.ClaimID][]float64 {
	out := make(map[socialsensing.ClaimID][]float64, len(posteriors))
	for id, p := range posteriors {
		smoothed := make([]float64, len(p))
		copy(smoothed, p)
		ns := g.neighbors[id]
		if len(ns) == 0 || g.cfg.Blend == 0 {
			out[id] = smoothed
			continue
		}
		totalW := 0.0
		for _, n := range ns {
			totalW += math.Abs(n.R)
		}
		for t := range smoothed {
			acc := 0.0
			accW := 0.0
			for _, n := range ns {
				q, ok := posteriors[n.B]
				if !ok || t >= len(q) {
					continue
				}
				v := q[t]
				if n.R < 0 {
					v = 1 - v
				}
				w := math.Abs(n.R) / totalW
				acc += w * v
				accW += w
			}
			if accW > 0 {
				neighbourMean := acc / accW
				smoothed[t] = (1-g.cfg.Blend)*p[t] + g.cfg.Blend*neighbourMean
			}
		}
		out[id] = smoothed
	}
	return out
}

// Threshold converts posteriors into hard truth values at 0.5.
func Threshold(posteriors map[socialsensing.ClaimID][]float64) map[socialsensing.ClaimID][]socialsensing.TruthValue {
	out := make(map[socialsensing.ClaimID][]socialsensing.TruthValue, len(posteriors))
	for id, p := range posteriors {
		tv := make([]socialsensing.TruthValue, len(p))
		for t, v := range p {
			if v >= 0.5 {
				tv[t] = socialsensing.True
			} else {
				tv[t] = socialsensing.False
			}
		}
		out[id] = tv
	}
	return out
}

// pearson computes the correlation over the overlapping prefix of a and b,
// skipping intervals where both are zero, and returns it with the number
// of samples used. Degenerate inputs (constant series) yield 0.
func pearson(a, b []float64) (float64, int) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var xs, ys []float64
	for i := 0; i < n; i++ {
		if a[i] == 0 && b[i] == 0 {
			continue
		}
		xs = append(xs, a[i])
		ys = append(ys, b[i])
	}
	m := len(xs)
	if m < 2 {
		return 0, m
	}
	var sumX, sumY float64
	for i := 0; i < m; i++ {
		sumX += xs[i]
		sumY += ys[i]
	}
	meanX, meanY := sumX/float64(m), sumY/float64(m)
	var cov, varX, varY float64
	for i := 0; i < m; i++ {
		dx, dy := xs[i]-meanX, ys[i]-meanY
		cov += dx * dy
		varX += dx * dx
		varY += dy * dy
	}
	if varX == 0 || varY == 0 {
		return 0, m
	}
	return cov / math.Sqrt(varX*varY), m
}
