package graph_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"soteria/internal/disasm"
	"soteria/internal/gea"
	"soteria/internal/graph"
	"soteria/internal/malgen"
)

// referenceBetweenness is the separate Brandes pass the fused kernel
// replaced, kept verbatim as the bit-identity oracle: a fresh merged
// neighbour list at every visit and per-node predecessor slices.
func referenceBetweenness(g *graph.Graph) []float64 {
	n := g.NumNodes()
	bc := make([]float64, n)
	if n < 3 {
		return bc
	}

	sigma := make([]float64, n)
	dist := make([]int, n)
	delta := make([]float64, n)
	preds := make([][]int, n)
	order := make([]int, 0, n)
	queue := make([]int, 0, n)

	for s := 0; s < n; s++ {
		for i := 0; i < n; i++ {
			sigma[i] = 0
			dist[i] = -1
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		order = order[:0]
		queue = queue[:0]

		sigma[s] = 1
		dist[s] = 0
		queue = append(queue, s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			for _, v := range g.UndirectedNeighbors(u) {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
					preds[v] = append(preds[v], u)
				}
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for _, u := range preds[w] {
				delta[u] += sigma[u] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				bc[w] += delta[w]
			}
		}
	}
	norm := float64(n-1) * float64(n-2)
	for i := range bc {
		bc[i] /= norm
	}
	return bc
}

// referenceCloseness is the separate closeness pass the fused kernel
// replaced: one UndirectedDistances BFS per node.
func referenceCloseness(g *graph.Graph) []float64 {
	n := g.NumNodes()
	cc := make([]float64, n)
	if n < 2 {
		return cc
	}
	for u := 0; u < n; u++ {
		sum, reach := 0, 0
		for v, d := range g.UndirectedDistances(u) {
			if v != u && d > 0 {
				sum += d
				reach++
			}
		}
		if sum == 0 {
			continue
		}
		frac := float64(reach) / float64(n-1)
		cc[u] = frac * float64(reach) / float64(sum)
	}
	return cc
}

// checkCentrality fails t unless every measure of g, from a fresh
// workspace and from ws (which may hold a previous graph's state),
// equals the reference in every bit.
func checkCentrality(t *testing.T, name string, g *graph.Graph, ws *graph.Workspace) {
	t.Helper()
	bc, cc := referenceBetweenness(g), referenceCloseness(g)
	cf := make([]float64, len(bc))
	for i := range cf {
		cf[i] = bc[i] + cc[i]
	}
	gotB, gotC := ws.Centrality(g)
	sameBits(t, name+" Workspace.Centrality betweenness", gotB, bc)
	sameBits(t, name+" Workspace.Centrality closeness", gotC, cc)
	sameBits(t, name+" Workspace.CentralityFactor", ws.CentralityFactor(g), cf)
	sameBits(t, name+" Betweenness", g.Betweenness(), bc)
	sameBits(t, name+" Closeness", g.Closeness(), cc)
	sameBits(t, name+" CentralityFactor", g.CentralityFactor(), cf)
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: node %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// paperCFGs returns malgen CFGs at every Table III anchor size (10–443
// nodes) followed by a GEA merge of each with a median benign target,
// the graphs labeling sees when serving the paper's mix.
func paperCFGs(tb testing.TB) (names []string, cfgs []*disasm.CFG) {
	tb.Helper()
	gen := malgen.NewGenerator(malgen.Config{Seed: 3})
	target, err := gen.SampleSized(malgen.Benign, malgen.PaperSizes[malgen.Benign].Median)
	if err != nil {
		tb.Fatal(err)
	}
	var merges []*disasm.CFG
	for _, c := range malgen.Classes {
		st := malgen.PaperSizes[c]
		for _, n := range []int{st.Min, st.Median, st.Max} {
			s, err := gen.SampleSized(c, n)
			if err != nil {
				tb.Fatal(err)
			}
			_, m, err := gea.MergeToCFG(s.Program, target.Program)
			if err != nil {
				tb.Fatal(err)
			}
			names = append(names, fmt.Sprintf("%s-%d", c, n))
			cfgs = append(cfgs, s.CFG)
			merges = append(merges, m)
		}
	}
	for i := range merges {
		names = append(names, names[i]+"+gea")
	}
	return names, append(cfgs, merges...)
}

// randomMessyGraph draws a graph with self-loops, isolated nodes and
// (usually) several weakly connected components.
func randomMessyGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	if n == 0 {
		return g
	}
	comps := 1 + rng.Intn(4)
	for i := rng.Intn(3 * n); i > 0; i-- {
		// Endpoints share a residue mod comps, so no edge joins two
		// components; node n-1 stays isolated whenever n > 1.
		u := rng.Intn(n)
		v := u%comps + comps*rng.Intn(n/comps+1)
		if v >= n || (n > 1 && (u == n-1 || v == n-1)) {
			continue
		}
		g.MustAddEdge(u, v)
	}
	for i := rng.Intn(3); i > 0; i-- {
		u := rng.Intn(n)
		g.MustAddEdge(u, u)
	}
	return g
}

func TestCentralityMatchesReference(t *testing.T) {
	ws := new(graph.Workspace)
	names, cfgs := paperCFGs(t)
	for i, c := range cfgs {
		checkCentrality(t, names[i], c.G, ws)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		n := rng.Intn(40)
		checkCentrality(t, fmt.Sprintf("random %d (n=%d)", i, n), randomMessyGraph(rng, n), ws)
	}
	for n := 0; n <= 3; n++ {
		checkCentrality(t, fmt.Sprintf("edgeless n=%d", n), graph.New(n), ws)
		path := graph.New(n)
		for u := 0; u+1 < n; u++ {
			path.MustAddEdge(u, u+1)
		}
		checkCentrality(t, fmt.Sprintf("path n=%d", n), path, ws)
	}
}

// FuzzCentrality checks the fused kernel against the reference on
// arbitrary graphs: the first byte picks the node count, each further
// byte pair adds an edge (self-loops and duplicates included).
func FuzzCentrality(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{2, 0, 1})
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{6, 0, 1, 1, 2, 3, 4, 4, 4, 1, 0})
	f.Add([]byte{9, 0, 1, 0, 2, 1, 3, 2, 3, 3, 4, 4, 5, 4, 6, 5, 7, 6, 7, 7, 8})
	f.Add([]byte{40, 0, 1, 1, 2, 2, 3, 3, 0, 10, 11, 11, 12, 39, 39, 20, 5})
	ws := new(graph.Workspace)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		if len(data) > 0 {
			n = int(data[0]) % 64
			data = data[1:]
		}
		g := graph.New(n)
		for i := 0; n > 0 && i+1 < len(data); i += 2 {
			g.MustAddEdge(int(data[i])%n, int(data[i+1])%n)
		}
		checkCentrality(t, "fuzz", g, ws)
	})
}

func TestCentralityWorkspaceZeroAllocs(t *testing.T) {
	_, cfgs := paperCFGs(t)
	small, big := cfgs[0].G, cfgs[0].G
	for _, c := range cfgs {
		if c.G.NumNodes() > big.NumNodes() {
			big = c.G
		}
	}
	ws := new(graph.Workspace)
	ws.CentralityFactor(big) // grow every buffer once
	ws.BFSLevels(big, 0)
	for _, g := range []*graph.Graph{small, big} {
		allocs := testing.AllocsPerRun(5, func() {
			ws.CentralityFactor(g)
			ws.BFSLevels(g, 0)
		})
		if allocs != 0 {
			t.Fatalf("warmed workspace allocates %v/op on %d nodes, want 0", allocs, g.NumNodes())
		}
	}
}

func BenchmarkCentralityFactor(b *testing.B) {
	gen := malgen.NewGenerator(malgen.Config{Seed: 42})
	s64, err := gen.SampleSized(malgen.Gafgyt, 64)
	if err != nil {
		b.Fatal(err)
	}
	s443, err := gen.SampleSized(malgen.Benign, 443)
	if err != nil {
		b.Fatal(err)
	}
	_, merged, err := gea.MergeToCFG(s64.Program, s443.Program)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		g    *graph.Graph
	}{{"n=64", s64.CFG.G}, {"n=443", s443.CFG.G}, {"gea", merged.G}} {
		b.Run(bc.name, func(b *testing.B) {
			ws := new(graph.Workspace)
			ws.CentralityFactor(bc.g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.CentralityFactor(bc.g)
			}
		})
	}
}
