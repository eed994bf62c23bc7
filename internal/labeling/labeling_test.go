package labeling

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"soteria/internal/disasm"
	"soteria/internal/gea"
	"soteria/internal/graph"
	"soteria/internal/malgen"
)

// starChain: 0->1, 0->2, 0->3, 3->4.
func starChain() *graph.Graph {
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(3, 4)
	return g
}

func TestKindString(t *testing.T) {
	if DBL.String() != "DBL" || LBL.String() != "LBL" {
		t.Fatal("kind names wrong")
	}
	if Kind(0).String() != "Kind(?)" {
		t.Fatal("unknown kind name wrong")
	}
}

func TestDensityBasedStarChain(t *testing.T) {
	// Densities: node0 3/4, node3 2/4, nodes 1,2,4 1/4. The 1,2,4 tie
	// breaks on centrality factor (leaves 1,2 are closer to everything
	// than 4), then node ID for the symmetric pair (1,2).
	l := DensityBased(starChain(), 0)
	want := []int{0, 2, 3, 1, 4} // labels by node
	if !reflect.DeepEqual(l.Perm, want) {
		t.Fatalf("DBL Perm = %v, want %v", l.Perm, want)
	}
}

func TestLevelBasedEntryIsZero(t *testing.T) {
	l := LevelBased(starChain(), 0)
	if l.Perm[0] != 0 {
		t.Fatalf("entry label = %d, want 0", l.Perm[0])
	}
}

func TestDBLAndLBLDiffer(t *testing.T) {
	// 0->1, 1->2, 1->3, 2->4, 3->4, 4->1: node 1 is densest but at level
	// 1, so DBL and LBL must disagree.
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(2, 4)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(4, 1)

	dbl := DensityBased(g, 0)
	lbl := LevelBased(g, 0)
	wantDBL := []int{4, 0, 2, 3, 1}
	wantLBL := []int{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(dbl.Perm, wantDBL) {
		t.Fatalf("DBL Perm = %v, want %v", dbl.Perm, wantDBL)
	}
	if !reflect.DeepEqual(lbl.Perm, wantLBL) {
		t.Fatalf("LBL Perm = %v, want %v", lbl.Perm, wantLBL)
	}
}

func TestPaperFig4Diamond(t *testing.T) {
	// The shared-entry/exit diamond of the paper's labeling example: all
	// centralities tie, so the level cascade decides and both schemes
	// agree: entry 0, the two branch nodes by ID, the join last.
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(2, 3)
	want := []int{0, 1, 2, 3}
	if got := DensityBased(g, 0).Perm; !reflect.DeepEqual(got, want) {
		t.Fatalf("DBL Perm = %v, want %v", got, want)
	}
	if got := LevelBased(g, 0).Perm; !reflect.DeepEqual(got, want) {
		t.Fatalf("LBL Perm = %v, want %v", got, want)
	}
}

func TestOrderInverseOfPerm(t *testing.T) {
	for _, k := range Kinds {
		l := Compute(k, starChain(), 0)
		for node, label := range l.Perm {
			if l.Order[label] != node {
				t.Fatalf("%s: Order[%d] = %d, want %d", k, label, l.Order[label], node)
			}
		}
		if l.Of(3) != l.Perm[3] {
			t.Fatalf("%s: Of mismatch", k)
		}
	}
}

func TestUnreachableNodesRankLast(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	// 2 and 3 unreachable and isolated (density 0).
	l := LevelBased(g, 0)
	if l.Perm[2] < 2 || l.Perm[3] < 2 {
		t.Fatalf("unreachable nodes should rank last: %v", l.Perm)
	}
}

func randomConnected(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v) // random tree: all reachable
	}
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

func TestPropertyLabelsArePermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 2+rng.Intn(30))
		for _, k := range Kinds {
			l := Compute(k, g, 0)
			seen := make([]bool, g.NumNodes())
			for _, lab := range l.Perm {
				if lab < 0 || lab >= g.NumNodes() || seen[lab] {
					return false
				}
				seen[lab] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLBLRespectsLevels(t *testing.T) {
	// A node at a strictly smaller level must get a smaller label.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 2+rng.Intn(25))
		l := LevelBased(g, 0)
		levels := g.BFSLevels(0)
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				if levels[u] < levels[v] && l.Perm[u] > l.Perm[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDBLRespectsDensity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 2+rng.Intn(25))
		l := DensityBased(g, 0)
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				if g.NodeDensity(u) > g.NodeDensity(v) && l.Perm[u] > l.Perm[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomConnected(rng, 40)
	a := DensityBased(g, 0)
	b := DensityBased(g, 0)
	if !reflect.DeepEqual(a.Perm, b.Perm) {
		t.Fatal("DBL not deterministic")
	}
}

// referenceLabels is the ranking Both replaced, kept as its oracle:
// fresh centrality and level slices, and sort.Slice over a less
// function instead of slices.SortFunc over a comparison.
func referenceLabels(g *graph.Graph, entry int, k Kind) *Labels {
	cf := g.CentralityFactor()
	levels := g.BFSLevels(entry)
	keys := make([]nodeKey, g.NumNodes())
	for v := range keys {
		lvl := levels[v]
		if lvl == -1 {
			lvl = math.MaxInt32
		}
		keys[v] = nodeKey{id: v, density: g.NodeDensity(v), cf: cf[v], level: lvl}
	}
	less := func(a, b nodeKey) bool {
		if a.density != b.density {
			return a.density > b.density
		}
		if a.cf != b.cf {
			return a.cf > b.cf
		}
		if a.level != b.level {
			return a.level < b.level
		}
		return a.id < b.id
	}
	if k == LBL {
		byDensity := less
		less = func(a, b nodeKey) bool {
			if a.level != b.level {
				return a.level < b.level
			}
			return byDensity(a, b)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	l := &Labels{Perm: make([]int, len(keys)), Order: make([]int, len(keys))}
	for label, k := range keys {
		l.Perm[k.id] = label
		l.Order[label] = k.id
	}
	return l
}

func TestBothMatchesSeparateComputations(t *testing.T) {
	var w Workspace
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 2+rng.Intn(40))
		wantD := referenceLabels(g, 0, DBL)
		wantL := referenceLabels(g, 0, LBL)
		gotD, gotL := Both(g, 0)
		wsD, wsL := w.Both(g, 0)
		return reflect.DeepEqual(wantD, gotD) && reflect.DeepEqual(wantL, gotL) &&
			reflect.DeepEqual(wantD, wsD) && reflect.DeepEqual(wantL, wsL) &&
			reflect.DeepEqual(wantD, DensityBased(g, 0)) && reflect.DeepEqual(wantL, LevelBased(g, 0))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// paperGraphs returns malgen CFGs at Table III's smallest, median and
// largest benign sizes and a GEA merge of the largest.
func paperGraphs(t *testing.T) []*disasm.CFG {
	t.Helper()
	gen := malgen.NewGenerator(malgen.Config{Seed: 5})
	var out []*disasm.CFG
	st := malgen.PaperSizes[malgen.Benign]
	for _, n := range []int{st.Min, st.Median, st.Max} {
		s, err := gen.SampleSized(malgen.Benign, n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s.CFG)
	}
	victim, err := gen.SampleSized(malgen.Mirai, malgen.PaperSizes[malgen.Mirai].Median)
	if err != nil {
		t.Fatal(err)
	}
	target, err := gen.SampleSized(malgen.Benign, st.Max)
	if err != nil {
		t.Fatal(err)
	}
	_, merged, err := gea.MergeToCFG(victim.Program, target.Program)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, merged)
}

func TestWorkspaceMatchesReferenceOnPaperCFGs(t *testing.T) {
	var w Workspace
	cfgs := paperGraphs(t)
	// Largest first, so smaller graphs run on grown, dirty buffers.
	slices.Reverse(cfgs)
	for _, c := range cfgs {
		d, l := w.Both(c.G, c.EntryNode())
		if want := referenceLabels(c.G, c.EntryNode(), DBL); !reflect.DeepEqual(d, want) {
			t.Fatalf("%d nodes: DBL differs from reference", c.G.NumNodes())
		}
		if want := referenceLabels(c.G, c.EntryNode(), LBL); !reflect.DeepEqual(l, want) {
			t.Fatalf("%d nodes: LBL differs from reference", c.G.NumNodes())
		}
	}
}

// TestBothConcurrentDeterministic shares the package's pooled
// workspaces among goroutines labeling different graphs; run with
// -race it pins that no two callers ever hold one workspace.
func TestBothConcurrentDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	graphs := make([]*graph.Graph, 8)
	want := make([][2]*Labels, len(graphs))
	for i := range graphs {
		graphs[i] = randomConnected(rng, 5+rng.Intn(60))
		want[i] = [2]*Labels{referenceLabels(graphs[i], 0, DBL), referenceLabels(graphs[i], 0, LBL)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				i := (g + iter) % len(graphs)
				d, l := Both(graphs[i], 0)
				if !reflect.DeepEqual(d, want[i][0]) || !reflect.DeepEqual(l, want[i][1]) {
					t.Errorf("goroutine %d: graph %d labels differ from reference", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestWorkspaceBothZeroAllocs(t *testing.T) {
	cfgs := paperGraphs(t)
	var w Workspace
	w.Both(cfgs[len(cfgs)-1].G, cfgs[len(cfgs)-1].EntryNode()) // grow every buffer once
	for _, c := range cfgs {
		allocs := testing.AllocsPerRun(5, func() { w.Both(c.G, c.EntryNode()) })
		if allocs != 0 {
			t.Fatalf("warmed Workspace.Both allocates %v/op on %d nodes, want 0", allocs, c.G.NumNodes())
		}
	}
}
