package graph

// BFSLevels returns, for every node, the smallest number of edges on a
// directed path from entry (level 0 for the entry itself). Unreachable
// nodes get level -1. This is the "level" of the paper's level-based
// labeling (the paper counts levels from 1; callers add the offset).
func (g *Graph) BFSLevels(entry int) []int {
	return new(Workspace).BFSLevels(g, entry)
}

// BFSLevels is Graph.BFSLevels in a slice that belongs to w.
func (w *Workspace) BFSLevels(g *Graph, entry int) []int {
	levels := resize(w.levels, g.NumNodes())
	w.levels = levels
	for i := range levels {
		levels[i] = -1
	}
	if entry < 0 || entry >= g.NumNodes() {
		return levels
	}
	levels[entry] = 0
	queue := append(w.order[:0], entry)
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		for _, v := range g.succsRef(u) {
			if levels[v] == -1 {
				levels[v] = levels[u] + 1
				queue = append(queue, v)
			}
		}
	}
	w.order = queue
	return levels
}

// Reachable returns the set of nodes reachable from entry along directed
// edges, as a boolean slice indexed by node ID. The entry itself is
// always reachable.
func (g *Graph) Reachable(entry int) []bool {
	seen := make([]bool, g.NumNodes())
	if entry < 0 || entry >= g.NumNodes() {
		return seen
	}
	seen[entry] = true
	stack := []int{entry}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.succsRef(u) {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// ShortestPathsFrom returns directed BFS distances from src to every node;
// unreachable nodes get -1.
func (g *Graph) ShortestPathsFrom(src int) []int {
	return g.bfsDist(src, g.succsRef)
}

// UndirectedDistances returns BFS distances over the undirected view of
// the graph; unreachable nodes get -1.
func (g *Graph) UndirectedDistances(src int) []int {
	return g.bfsDist(src, g.UndirectedNeighbors)
}

func (g *Graph) bfsDist(src int, adj func(int) []int) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.NumNodes() {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Diameter returns the longest shortest path over the undirected view,
// considering only connected pairs. An edgeless or single-node graph has
// diameter 0.
func (g *Graph) Diameter() int {
	d := 0
	for u := 0; u < g.NumNodes(); u++ {
		for _, x := range g.UndirectedDistances(u) {
			if x > d {
				d = x
			}
		}
	}
	return d
}

// AverageShortestPath returns the mean undirected shortest-path length
// over all connected ordered pairs (u, v), u != v. It returns 0 when no
// such pair exists.
func (g *Graph) AverageShortestPath() float64 {
	sum, cnt := 0, 0
	for u := 0; u < g.NumNodes(); u++ {
		for v, x := range g.UndirectedDistances(u) {
			if v != u && x > 0 {
				sum += x
				cnt++
			}
		}
	}
	if cnt == 0 {
		return 0
	}
	return float64(sum) / float64(cnt)
}

// ConnectedComponents returns the number of weakly connected components.
func (g *Graph) ConnectedComponents() int {
	seen := make([]bool, g.NumNodes())
	comps := 0
	for s := 0; s < g.NumNodes(); s++ {
		if seen[s] {
			continue
		}
		comps++
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.UndirectedNeighbors(u) {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return comps
}
