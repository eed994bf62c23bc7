package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestBetweennessPath(t *testing.T) {
	// Undirected path 0-1-2: only node 1 lies between a pair.
	g := chain(3)
	bc := g.Betweenness()
	if !almostEqual(bc[0], 0) || !almostEqual(bc[2], 0) {
		t.Fatalf("endpoints should have 0 betweenness, got %v", bc)
	}
	// Pair (0,2) and (2,0) both route through 1: 2 dependencies over
	// (n-1)(n-2) = 2 ordered pairs -> 1.0.
	if !almostEqual(bc[1], 1.0) {
		t.Fatalf("bc[1] = %v, want 1.0", bc[1])
	}
}

func TestBetweennessStar(t *testing.T) {
	// Star with center 0 and leaves 1..4: all leaf pairs go through 0.
	g := New(5)
	for v := 1; v < 5; v++ {
		g.MustAddEdge(0, v)
	}
	bc := g.Betweenness()
	if !almostEqual(bc[0], 1.0) {
		t.Fatalf("center betweenness = %v, want 1.0", bc[0])
	}
	for v := 1; v < 5; v++ {
		if !almostEqual(bc[v], 0) {
			t.Fatalf("leaf %d betweenness = %v, want 0", v, bc[v])
		}
	}
}

func TestBetweennessTinyGraphs(t *testing.T) {
	for n := 0; n < 3; n++ {
		bc := New(n).Betweenness()
		for _, v := range bc {
			if v != 0 {
				t.Fatalf("n=%d: expected all-zero betweenness, got %v", n, bc)
			}
		}
	}
}

func TestClosenessPath(t *testing.T) {
	g := chain(3)
	cc := g.Closeness()
	// Node 1: distances 1,1 -> closeness = 1 * 2/2 = 1.
	if !almostEqual(cc[1], 1.0) {
		t.Fatalf("cc[1] = %v, want 1.0", cc[1])
	}
	// Node 0: distances 1,2 -> 2/3.
	if !almostEqual(cc[0], 2.0/3.0) {
		t.Fatalf("cc[0] = %v, want 2/3", cc[0])
	}
}

func TestClosenessDisconnected(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	// 2, 3 isolated: closeness 0; 0 and 1 reach 1 of 3 others.
	cc := g.Closeness()
	if !almostEqual(cc[2], 0) || !almostEqual(cc[3], 0) {
		t.Fatalf("isolated nodes closeness = %v, want 0", cc)
	}
	want := (1.0 / 3.0) * 1.0 / 1.0 // frac 1/3, reach/sum = 1/1
	if !almostEqual(cc[0], want) {
		t.Fatalf("cc[0] = %v, want %v", cc[0], want)
	}
}

func TestCentralityFactorSum(t *testing.T) {
	g := chain(4)
	b := g.Betweenness()
	c := g.Closeness()
	cf := g.CentralityFactor()
	for i := range cf {
		if !almostEqual(cf[i], b[i]+c[i]) {
			t.Fatalf("CF[%d] = %v, want %v", i, cf[i], b[i]+c[i])
		}
	}
}

func TestPropertyCentralityBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		g := randomGraph(rng, n, rng.Intn(4*n))
		for _, v := range g.Betweenness() {
			if v < 0 || v > 1+1e-9 || math.IsNaN(v) {
				return false
			}
		}
		for _, v := range g.Closeness() {
			if v < 0 || v > 1+1e-9 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBetweennessDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		g := randomGraph(rng, n, rng.Intn(3*n))
		a := g.Betweenness()
		b := g.Betweenness()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
