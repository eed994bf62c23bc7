package graph

// Centrality measures follow the paper's definitions (section III-B.1,
// footnote 1):
//
//   - Betweenness B(v): the paper counts shortest paths through v over
//     the total number of shortest paths. We compute the standard Brandes
//     pair-dependency form, sum over pairs of sigma_st(v)/sigma_st,
//     normalized by the number of ordered pairs — a monotone equivalent
//     that preserves every ranking the labeling tie-breaks rely on.
//   - Closeness C(v): derived from the average shortest-path distance
//     between v and all other nodes; we use the standard inverse form
//     (n-1) / sum(dist), which is monotone in the paper's definition and
//     preserves every ranking the labeling needs.
//   - Centrality factor CF(v) = B(v) + C(v).
//
// Both measures are computed over the undirected view of the CFG, which
// matches the paper's random-walk treatment of the graph and keeps exit
// blocks comparable with entry blocks.
//
// One kernel computes both: a BFS from every source s yields the
// shortest-path counts and predecessor lists Brandes' dependency
// accumulation needs, and the same BFS's distances give closeness(s).
// The floating-point operations, and the order they run in, are those
// of one Brandes pass and one closeness pass run separately, so the
// results are bit-identical to them.

// Workspace is reusable scratch for the graph measures labeling takes
// from every sample: the fused centrality kernel and BFS levels. A
// warmed workspace computes them without allocating. Each method's
// result lives in the workspace until the next call of that method
// (Centrality and CentralityFactor share one result). The zero value
// is ready to use; a Workspace is not safe for concurrent use.
type Workspace struct {
	// off and adj hold the undirected view in CSR form: node u's sorted
	// neighbours are adj[off[u]:off[u+1]].
	off, adj []int
	// preds holds each BFS's shortest-path predecessors: node v's are
	// preds[off[v]:off[v]+npred[v]]. They are a subset of v's
	// neighbours, so they always fit at v's CSR offset.
	preds, npred []int
	dist         []int
	// order is the BFS visiting order and doubles as its queue.
	order        []int
	sigma, delta []float64
	bc, cc       []float64
	levels       []int
}

// Centrality runs the fused kernel over g and returns every node's
// betweenness — Brandes' algorithm on the undirected view, normalized
// by the number of ordered node pairs (n-1)(n-2) so values lie in
// [0, 1] — and closeness: (reachable-1) / sum of distances to reachable
// nodes, scaled by the fraction of the graph reached (the
// Wasserman-Faust correction), so disconnected graphs remain
// comparable. Isolated nodes get closeness 0; graphs with fewer than
// three nodes have zero betweenness. Both slices belong to w.
func (w *Workspace) Centrality(g *Graph) (bc, cc []float64) {
	n := g.NumNodes()
	w.bc, w.cc = zeroed(w.bc, n), zeroed(w.cc, n)
	if n < 2 {
		return w.bc, w.cc
	}
	w.off = resize(w.off, n+1)
	w.adj = w.adj[:0]
	for u := 0; u < n; u++ {
		w.off[u] = len(w.adj)
		w.adj = g.AppendUndirectedNeighbors(w.adj, u)
	}
	w.off[n] = len(w.adj)
	w.preds = resize(w.preds, len(w.adj))
	w.npred = zeroed(w.npred, n)
	w.dist = resize(w.dist, n)
	for i := range w.dist {
		w.dist[i] = -1
	}
	w.sigma, w.delta = zeroed(w.sigma, n), zeroed(w.delta, n)

	off, adj, preds, npred := w.off, w.adj, w.preds, w.npred
	dist, sigma, delta, bc, cc := w.dist, w.sigma, w.delta, w.bc, w.cc
	for s := 0; s < n; s++ {
		sigma[s] = 1
		dist[s] = 0
		order := append(w.order[:0], s)
		sum := 0
		for h := 0; h < len(order); h++ {
			u := order[h]
			du := dist[u]
			sum += du
			for _, v := range adj[off[u]:off[u+1]] {
				if dist[v] == -1 {
					dist[v] = du + 1
					order = append(order, v)
				}
				if dist[v] == du+1 {
					sigma[v] += sigma[u]
					preds[off[v]+npred[v]] = u
					npred[v]++
				}
			}
		}
		w.order = order
		if sum > 0 {
			reach := len(order) - 1
			frac := float64(reach) / float64(n-1)
			cc[s] = frac * float64(reach) / float64(sum)
		}
		// Accumulate dependencies in reverse BFS order. Once x is done
		// nothing reads its entries again (its predecessors come earlier
		// in the order), so it is restored for the next source here; only
		// visited nodes were ever touched.
		for i := len(order) - 1; i >= 0; i-- {
			x := order[i]
			for _, u := range preds[off[x] : off[x]+npred[x]] {
				delta[u] += sigma[u] / sigma[x] * (1 + delta[x])
			}
			if x != s {
				bc[x] += delta[x]
			}
			sigma[x], dist[x], delta[x], npred[x] = 0, -1, 0, 0
		}
	}
	if n < 3 {
		// With two nodes every dependency is 0 and the pair count is 0.
		clear(bc)
		return bc, cc
	}
	// Undirected Brandes counts each unordered pair from both endpoints;
	// dividing by ordered-pair count (n-1)(n-2) bounds values to [0, 1].
	norm := float64(n-1) * float64(n-2)
	for i := range bc {
		bc[i] /= norm
	}
	return bc, cc
}

// CentralityFactor returns CF(v) = B(v) + C(v) for every node of g, in
// a slice that belongs to w.
func (w *Workspace) CentralityFactor(g *Graph) []float64 {
	cf, cc := w.Centrality(g)
	for i := range cf {
		cf[i] += cc[i]
	}
	return cf
}

// Betweenness returns the betweenness centrality of every node (see
// Workspace.Centrality) in a fresh slice.
func (g *Graph) Betweenness() []float64 {
	bc, _ := new(Workspace).Centrality(g)
	return bc
}

// Closeness returns the closeness centrality of every node (see
// Workspace.Centrality) in a fresh slice.
func (g *Graph) Closeness() []float64 {
	_, cc := new(Workspace).Centrality(g)
	return cc
}

// CentralityFactor returns CF(v) = B(v) + C(v) for every node in a
// fresh slice.
func (g *Graph) CentralityFactor() []float64 {
	return new(Workspace).CentralityFactor(g)
}

// resize returns s with length n, reusing its capacity. Contents are
// unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed returns s with length n and every element zero.
func zeroed[T any](s []T, n int) []T {
	s = resize(s, n)
	clear(s)
	return s
}
