package main

import (
	"bytes"
	"sort"
	"testing"

	"soteria/internal/malgen"
)

// sameInputs reports whether two request sequences offer identical
// bytes and salts in the same order.
func sameInputs(a, b []*input) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].salt != b[i].salt || !bytes.Equal(a[i].raw, b[i].raw) || a[i].gea != b[i].gea {
			return false
		}
	}
	return true
}

func TestServingInputsDeterministicPerSeed(t *testing.T) {
	w, _ := lookupWorkload("fleet-repeat")
	a, err := makeServingInputs(w, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeServingInputs(w, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := makeServingInputs(w, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2][]*input{
		"warm-up": {a.warm, b.warm}, "A": {a.a, b.a}, "B": {a.b, b.b}, "distinct": {a.distinct, b.distinct},
	} {
		if !sameInputs(pair[0], pair[1]) {
			t.Errorf("phase %s differs between two builds with seed 7", name)
		}
	}
	if sameInputs(a.a, c.a) {
		t.Error("seeds 7 and 8 offered identical phase A traffic")
	}
	// The arrival schedule depends only on the rate, so same-seed runs
	// send the same bytes at the same offsets.
	for i := range a.a {
		if dueAt(i, w.rateA) != dueAt(i, w.rateA) {
			t.Fatal("schedule not deterministic")
		}
	}
	if got, want := dueAt(150, 150), dueAt(1, 1); got != want {
		t.Errorf("dueAt(150, 150) = %v, want %v", got, want)
	}
}

func TestServingInputsRepeatShare(t *testing.T) {
	w, _ := lookupWorkload("fleet-repeat")
	s, err := makeServingInputs(w, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	hot := map[*input]bool{}
	for _, in := range s.warm {
		hot[in] = true
	}
	repeats := 0
	for _, in := range s.a {
		if hot[in] {
			repeats++
		}
	}
	if want := len(s.a) - int(float64(len(s.a))*(1-w.repeat)+0.5); repeats != want {
		t.Errorf("phase A repeats %d hot pairs, want %d", repeats, want)
	}
	// Repeats walk permutations of the warm set: over both phases no
	// warm pair is repeated more than once more than any other.
	uses := map[*input]int{}
	for _, in := range append(append([]*input(nil), s.a...), s.b...) {
		if hot[in] {
			uses[in]++
		}
	}
	lo, hi := len(s.a)+len(s.b), 0
	for _, in := range s.warm {
		lo, hi = min(lo, uses[in]), max(hi, uses[in])
	}
	if hi-lo > 1 {
		t.Errorf("warm pairs repeated between %d and %d times, want an even spread", lo, hi)
	}
	salts := map[int64]bool{}
	for _, in := range s.distinct {
		if salts[in.salt] {
			t.Fatalf("salt %d used by two distinct inputs", in.salt)
		}
		salts[in.salt] = true
	}
}

func TestPaperMixComposition(t *testing.T) {
	const n = 200
	ins, err := paperMix(11, n, 100)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[malgen.Class]int{}
	merges := 0
	for i, in := range ins {
		counts[in.class]++
		if in.salt != int64(100+i) {
			t.Errorf("input %d has salt %d, want %d", i, in.salt, 100+i)
		}
		if in.gea {
			merges++
		}
	}
	if merges != n/geaEvery {
		t.Errorf("%d GEA merges, want %d", merges, n/geaEvery)
	}
	// The k largest inputs land in k different stretches.
	k := n / segmentLen
	byStretch := map[int]bool{}
	for r, i := range largestFirst(ins)[:k] {
		if byStretch[i/segmentLen] {
			t.Errorf("size rank %d shares stretch %d with a larger input", r, i/segmentLen)
		}
		byStretch[i/segmentLen] = true
	}
	want := apportion(n)
	total := 0
	for _, c := range malgen.Classes {
		if counts[c] != want[c] {
			t.Errorf("%s: %d inputs, want %d", c, counts[c], want[c])
		}
		total += want[c]
	}
	if total != n {
		t.Errorf("apportion(%d) sums to %d", n, total)
	}
	// Table II: Gafgyt dominates, Tsunami is rare.
	if want[malgen.Gafgyt] != 133 || want[malgen.Tsunami] != 3 {
		t.Errorf("apportion(200) = %v", want)
	}
}

func TestStratifiedNodesSpanTableIII(t *testing.T) {
	st := malgen.PaperSizes[malgen.Benign]
	if got := nodesAt(st, 0); got != st.Min {
		t.Errorf("nodesAt(0) = %d, want %d", got, st.Min)
	}
	if got := nodesAt(st, 0.5); got != st.Median {
		t.Errorf("nodesAt(0.5) = %d, want %d", got, st.Median)
	}
	if got := nodesAt(st, 1); got != st.Max {
		t.Errorf("nodesAt(1) = %d, want %d", got, st.Max)
	}
	if sizeClass(malgen.Benign, st.Min) != malgen.Small || sizeClass(malgen.Benign, st.Median) != malgen.Medium ||
		sizeClass(malgen.Benign, st.Max) != malgen.Large {
		t.Error("Table III anchors fall in the wrong size classes")
	}
}

// largestFirst returns input indices ordered by decreasing CFG size.
func largestFirst(ins []input) []int {
	idx := make([]int, len(ins))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ins[idx[a]].nodes > ins[idx[b]].nodes })
	return idx
}
