package main

import (
	"fmt"
	"math/rand"
	"sort"

	"soteria/internal/disasm"
	"soteria/internal/gea"
	"soteria/internal/malgen"
)

// input is one analysis request: the SOTB bytes a client submits, the
// walk salt it carries, and what the benchmark knows about it.
type input struct {
	raw   []byte
	salt  int64
	class malgen.Class
	size  malgen.SizeClass // Table III size class of the original program
	gea   bool             // a GEA merge of the original with a benign target
	nodes int              // CFG nodes of the submitted binary
}

// geaEvery makes one in ten paper-mix binaries a GEA merge.
const geaEvery = 10

// segmentLen is the length of the stretches of a request sequence that
// each carry the same CFG-size mix (see paperMix).
const segmentLen = 50

// paperMix generates n distinct paper-mix binaries: classes in Table II
// proportions (malgen.PaperCounts) and node counts from the Table III
// anchors (malgen.PaperSizes), with one in geaEvery binaries replaced by
// a GEA merge of its program with a benign target. Salts are
// saltBase+i, so every input of a run carries its own salt.
//
// Class counts and node counts are stratified rather than drawn
// independently: each class gets its rounded Table II share, and its
// node counts take one jittered quantile from each of n equal strata of
// the Table III quantile function. The merges are stratified too: their
// originals are every geaEvery-th input by size, paired largest with
// largest against stratified benign targets, so the merged sizes — the
// CFGs an attacker inflates, up to about twice Table III's maximum —
// form the same tail for every seed. The order is stratified as well:
// inputs ranked by CFG size are dealt round-robin into consecutive
// stretches of segmentLen requests, which are then shuffled inside, so
// every stretch carries the same size mix. Every seed therefore offers
// the same size distribution, spread evenly over the run — the
// CFG-size tail that sets tail latency neither swings from seed to seed nor
// clusters by chance — while the seed still picks every program, the
// order within each stretch, the merge offset and the jitter.
func paperMix(seed int64, n int, saltBase int64) ([]input, error) {
	rng := rand.New(rand.NewSource(seed))
	type spec struct {
		class malgen.Class
		nodes int
	}
	var specs []spec
	counts := apportion(n)
	for _, c := range malgen.Classes {
		for _, nodes := range stratifiedNodes(rng, malgen.PaperSizes[c], counts[c]) {
			specs = append(specs, spec{c, nodes})
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	// The merged originals are every geaEvery-th spec by size rank, from
	// a seeded offset, and the r-th largest of them takes the r-th
	// largest benign target.
	byRank := make([]int, len(specs))
	for i := range byRank {
		byRank[i] = i
	}
	sort.SliceStable(byRank, func(a, b int) bool { return specs[byRank[a]].nodes > specs[byRank[b]].nodes })
	offset := rng.Intn(geaEvery)
	var merged []int
	for r := offset; r < len(byRank); r += geaEvery {
		merged = append(merged, byRank[r])
	}
	targets := stratifiedNodes(rng, malgen.PaperSizes[malgen.Benign], len(merged))
	sort.Sort(sort.Reverse(sort.IntSlice(targets)))
	target := make(map[int]int, len(merged))
	for r, i := range merged {
		target[i] = targets[r]
	}

	gen := malgen.NewGenerator(malgen.Config{Seed: rng.Int63()})
	out := make([]input, n)
	for i, sp := range specs {
		s, err := gen.SampleSized(sp.class, sp.nodes)
		if err != nil {
			return nil, err
		}
		in := input{class: sp.class, size: sizeClass(sp.class, sp.nodes), nodes: s.Nodes()}
		bin := s.Binary
		if tn, ok := target[i]; ok {
			t, err := gen.SampleSized(malgen.Benign, tn)
			if err != nil {
				return nil, err
			}
			var g *disasm.CFG
			if bin, g, err = gea.MergeToCFG(s.Program, t.Program); err != nil {
				return nil, fmt.Errorf("input %d: %w", i, err)
			}
			in.gea, in.nodes = true, g.NumNodes()
		}
		if in.raw, err = bin.Encode(); err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		out[i] = in
	}
	out = spreadBySize(rng, out)
	for i := range out {
		out[i].salt = saltBase + int64(i)
	}
	return out, nil
}

// spreadBySize orders inputs so that each consecutive stretch of
// segmentLen carries the same CFG-size mix: the inputs ranked by size
// form groups of k, one per stretch, each group dealt to the k stretches
// in a seeded random order; then each stretch is shuffled.
func spreadBySize(rng *rand.Rand, ins []input) []input {
	k := max(1, (len(ins)+segmentLen-1)/segmentLen)
	ranked := append([]input(nil), ins...)
	sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].nodes > ranked[b].nodes })
	segs := make([][]input, k)
	for g := 0; g < len(ranked); g += k {
		group := ranked[g:min(g+k, len(ranked))]
		for j, seg := range rng.Perm(k)[:len(group)] {
			segs[seg] = append(segs[seg], group[j])
		}
	}
	out := ins[:0]
	for _, seg := range segs {
		rng.Shuffle(len(seg), func(i, j int) { seg[i], seg[j] = seg[j], seg[i] })
		out = append(out, seg...)
	}
	return out
}

// apportion splits n inputs across classes in Table II proportions by
// largest remainder, so the class counts always sum to n.
func apportion(n int) map[malgen.Class]int {
	total := 0
	for _, c := range malgen.Classes {
		total += malgen.PaperCounts[c]
	}
	counts := make(map[malgen.Class]int, len(malgen.Classes))
	rem := make([]int, len(malgen.Classes))
	left := n
	for i, c := range malgen.Classes {
		counts[c] = n * malgen.PaperCounts[c] / total
		rem[i] = n * malgen.PaperCounts[c] % total
		left -= counts[c]
	}
	order := make([]int, len(malgen.Classes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		counts[malgen.Classes[i]]++
	}
	return counts
}

// stratifiedNodes draws k node counts, one uniformly inside each of k
// equal quantile strata of the class's size distribution.
func stratifiedNodes(rng *rand.Rand, st malgen.SizeStats, k int) []int {
	out := make([]int, k)
	for j := range out {
		out[j] = nodesAt(st, (float64(j)+rng.Float64())/float64(k))
	}
	return out
}

// nodesAt is the Table III quantile function malgen draws node counts
// from: piecewise linear through the class's minimum, median and
// maximum.
func nodesAt(st malgen.SizeStats, q float64) int {
	lo, mid, hi := float64(st.Min), float64(st.Median), float64(st.Max)
	v := mid + (hi-mid)*(q-0.5)*2
	if q < 0.5 {
		v = lo + (mid-lo)*q*2
	}
	return int(v + 0.5)
}

// sizeClass buckets a node count by the nearest Table III anchor of its
// class: below the min–median midpoint is small, above the median–max
// midpoint is large.
func sizeClass(c malgen.Class, nodes int) malgen.SizeClass {
	st := malgen.PaperSizes[c]
	switch {
	case 2*nodes < st.Min+st.Median:
		return malgen.Small
	case 2*nodes > st.Median+st.Max:
		return malgen.Large
	}
	return malgen.Medium
}
