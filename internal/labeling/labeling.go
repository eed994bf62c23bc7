// Package labeling implements the paper's two CFG node-labeling schemes
// (section III-B.1):
//
//   - Density-based labeling (DBL): nodes are ranked by density — the sum
//     of in- and out-edges over the total edge count — with ties broken by
//     centrality factor (betweenness + closeness), then by BFS level from
//     the entry, then (for fully symmetric nodes) by node ID, which for
//     disassembled CFGs is ascending block address.
//   - Level-based labeling (LBL): nodes are ranked by BFS level from the
//     entry block (the entry always gets label 0), with ties broken by the
//     same density → centrality → ID cascade.
//
// Both schemes are strict total orders, so any structural modification to
// the graph — such as a GEA merge — reshuffles the labels of the original
// subgraph, which is exactly the property that makes the downstream
// walk/n-gram features sensitive to adversarial grafting.
package labeling

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"soteria/internal/graph"
)

// Kind selects a labeling scheme.
type Kind int

// Labeling schemes.
const (
	DBL Kind = iota + 1 // density-based
	LBL                 // level-based
)

// String returns the scheme's short name.
func (k Kind) String() string {
	switch k {
	case DBL:
		return "DBL"
	case LBL:
		return "LBL"
	default:
		return "Kind(?)"
	}
}

// Kinds lists both schemes in paper order.
var Kinds = []Kind{DBL, LBL}

// Labels is a bijection between nodes and labels.
type Labels struct {
	// Perm maps node ID to its label in [0, |V|).
	Perm []int
	// Order maps a label back to its node ID.
	Order []int
}

// Of returns the label of a node.
func (l *Labels) Of(node int) int { return l.Perm[node] }

// nodeKey carries every ranking ingredient for one node.
type nodeKey struct {
	id      int
	density float64
	cf      float64
	level   int
}

// byDensity ranks higher density first, then higher centrality factor,
// then smaller level (closer to entry), then smaller node ID.
func byDensity(a, b nodeKey) int {
	switch {
	case a.density != b.density:
		return higherFirst(a.density, b.density)
	case a.cf != b.cf:
		return higherFirst(a.cf, b.cf)
	case a.level != b.level:
		return cmp.Compare(a.level, b.level)
	}
	return cmp.Compare(a.id, b.id)
}

// byLevel ranks smaller level first, then the density cascade.
func byLevel(a, b nodeKey) int {
	if a.level != b.level {
		return cmp.Compare(a.level, b.level)
	}
	return byDensity(a, b)
}

// higherFirst orders x before y when x > y; callers pass x != y.
func higherFirst(x, y float64) int {
	if x > y {
		return -1
	}
	return 1
}

// Workspace is reusable labeling state: the graph workspace behind the
// centrality factor and BFS levels, the per-node ranking keys, and both
// labelings. A warmed workspace labels a CFG without allocating. The
// zero value is ready to use; a Workspace is not safe for concurrent
// use.
type Workspace struct {
	g              graph.Workspace
	byDBL, byLBL   []nodeKey
	dblOut, lblOut Labels
}

// Both computes the DBL and LBL labelings of g with the given entry
// node from one pass over the shared ranking ingredients (density,
// centrality factor, BFS levels), which dominate labeling cost. Both
// Labels belong to w and are overwritten by its next call.
func (w *Workspace) Both(g *graph.Graph, entry int) (dbl, lbl *Labels) {
	cf := w.g.CentralityFactor(g)
	levels := w.g.BFSLevels(g, entry)
	w.byDBL = resize(w.byDBL, g.NumNodes())
	for v := range w.byDBL {
		lvl := levels[v]
		if lvl == -1 {
			lvl = math.MaxInt32 // unreachable nodes rank last on level
		}
		w.byDBL[v] = nodeKey{id: v, density: g.NodeDensity(v), cf: cf[v], level: lvl}
	}
	w.byLBL = append(w.byLBL[:0], w.byDBL...)
	return rank(&w.dblOut, w.byDBL, byDensity), rank(&w.lblOut, w.byLBL, byLevel)
}

// rank sorts keys into label order and writes the bijection into l.
func rank(l *Labels, keys []nodeKey, order func(a, b nodeKey) int) *Labels {
	slices.SortFunc(keys, order)
	l.Perm = resize(l.Perm, len(keys))
	l.Order = resize(l.Order, len(keys))
	for label, k := range keys {
		l.Perm[k.id] = label
		l.Order[label] = k.id
	}
	return l
}

// resize returns s with length n, reusing its capacity. Contents are
// unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// workspaces backs the package-level functions, so one-off callers
// share warmed workspaces instead of growing one per call.
var workspaces = sync.Pool{New: func() any { return new(Workspace) }}

// Both is Workspace.Both on a pooled workspace, returning Labels the
// caller owns.
func Both(g *graph.Graph, entry int) (dbl, lbl *Labels) {
	w := workspaces.Get().(*Workspace)
	d, l := w.Both(g, entry)
	dbl, lbl = d.clone(), l.clone()
	workspaces.Put(w)
	return dbl, lbl
}

func (l *Labels) clone() *Labels {
	return &Labels{Perm: slices.Clone(l.Perm), Order: slices.Clone(l.Order)}
}

// DensityBased computes the DBL labeling of g with the given entry node.
func DensityBased(g *graph.Graph, entry int) *Labels {
	dbl, _ := Both(g, entry)
	return dbl
}

// LevelBased computes the LBL labeling of g with the given entry node.
func LevelBased(g *graph.Graph, entry int) *Labels {
	_, lbl := Both(g, entry)
	return lbl
}

// Compute computes the labeling of the requested kind.
func Compute(k Kind, g *graph.Graph, entry int) *Labels {
	if k == LBL {
		return LevelBased(g, entry)
	}
	return DensityBased(g, entry)
}
