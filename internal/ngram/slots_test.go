package ngram

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// packs reports whether AddTrace is defined on trace for ns: every
// label fits a packed field and every length a packed key.
func packs(trace, ns []int) bool {
	for _, lab := range trace {
		if lab < 0 || lab > MaxPackedLabel {
			return false
		}
	}
	for _, n := range ns {
		if n > MaxPackedN {
			return false
		}
	}
	return true
}

// referenceSlots is the slot-counting oracle: each vocabulary entry's
// count and the total from the string-keyed Grams, which is exact for
// any label and length, and — where AddTrace is defined — the same from
// GramCounter.AddTrace restricted to the vocabulary, plus Total. The
// two must agree.
func referenceSlots(t *testing.T, v *Vectorizer, trace, ns []int) (counts []int, total int, grams map[string]int) {
	t.Helper()
	grams = Grams(trace, ns)
	counts = make([]int, len(v.Vocab))
	for i, g := range v.Vocab {
		counts[i] = grams[g]
	}
	for _, n := range grams {
		total += n
	}
	if !packs(trace, ns) {
		return counts, total, grams
	}
	c := NewGramCounter()
	c.AddTrace(trace, ns)
	if c.Total() != total {
		t.Fatalf("oracles disagree: AddTrace total %d, Grams total %d", c.Total(), total)
	}
	for i, k := range v.pkeys {
		if c.Count(k) != counts[i] {
			t.Fatalf("oracles disagree on slot %d (%s): AddTrace %d, Grams %d", i, v.Vocab[i], c.Count(k), counts[i])
		}
	}
	return counts, total, grams
}

// nanFilled returns a length-n vector of NaNs, so a reused dst that
// leaks any old value shows up.
func nanFilled(n int) []float64 {
	dst := make([]float64, n)
	for i := range dst {
		dst[i] = math.NaN()
	}
	return dst
}

// sameBits reports the first index where got and want differ in any
// bit, or -1.
func sameBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// checkSlots counts trace into fresh slots and checks counts, total and
// vector, L2 on and off, against the oracles.
func checkSlots(t *testing.T, v *Vectorizer, trace, ns []int) {
	t.Helper()
	want, wantTotal, grams := referenceSlots(t, v, trace, ns)
	got := make([]int, len(v.Vocab))
	total := v.CountSlots(got, trace, ns)
	if total != wantTotal {
		t.Fatalf("ns=%v len=%d: total %d, want %d", ns, len(trace), total, wantTotal)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ns=%v len=%d: slot %d (%s) counts %d, want %d", ns, len(trace), i, v.Vocab[i], got[i], want[i])
		}
	}
	l2 := v.L2
	defer func() { v.L2 = l2 }()
	for _, v.L2 = range []bool{false, true} {
		wantVec := v.Vector(grams)
		if packs(trace, ns) {
			c := NewGramCounter()
			c.AddTrace(trace, ns)
			wantVec = v.VectorPackedInto(nil, c)
		}
		vec := v.VectorSlotsInto(nanFilled(v.Dim), got, total)
		if i := sameBits(vec, wantVec); i >= 0 {
			t.Fatalf("ns=%v len=%d l2=%v: slot %d is %v, want %v", ns, len(trace), v.L2, i, vec[i], wantVec[i])
		}
	}
}

func TestSlotCountsMatchReference(t *testing.T) {
	_, corpus := corpusPair(t, 40, 60, []int{2, 3, 4})
	rng := rand.New(rand.NewSource(17))
	randTrace := func(n, maxLabel int) []int {
		tr := make([]int, n)
		for i := range tr {
			tr[i] = rng.Intn(maxLabel + 1)
		}
		return tr
	}
	var traces [][]int
	for i := 0; i < 12; i++ {
		traces = append(traces, randTrace(20+rng.Intn(300), 60))
	}
	// Labels past MaxPackedLabel (CFGs over 2^15 nodes): grams holding
	// one count only toward the total. Label 1<<15 packed by hand would
	// spill into the next field and alias another gram's key.
	for i := 0; i < 6; i++ {
		tr := randTrace(50+rng.Intn(100), 60)
		for j := 0; j < 1+i*4; j++ {
			tr[rng.Intn(len(tr))] = MaxPackedLabel + 1 + rng.Intn(1<<20)
		}
		traces = append(traces, tr)
	}
	traces = append(traces,
		[]int{MaxPackedLabel + 1, 0, 1, 2, MaxPackedLabel + 1, 3},
		nil, []int{7}, []int{7, 8}, []int{7, 8, 9}, // shorter than some or all n
	)
	nss := [][]int{
		{2, 3, 4},
		{1, 2},
		{1, 2, 3, 4},
		{0, -1, 3},
		{-3},
		{},
		{2, 2, 3},        // a repeated length counts once per repetition
		{4, 4, 4, 1},     // ... including a length probed last
		{2, 5},           // a length past MaxPackedN only adds to the total
		{math.MaxInt, 3}, // a length longer than any trace
	}
	for _, k := range []int{40, 1000} {
		v := FitPacked(corpus, k)
		if !v.PackedReady() {
			t.Fatal("packed fit must build a slot table")
		}
		larger, smaller := 0, 0
		for _, ns := range nss {
			for _, tr := range traces {
				if len(Grams(tr, ns)) > len(v.Vocab) {
					larger++
				} else {
					smaller++
				}
				checkSlots(t, v, tr, ns)
			}
		}
		if k == 40 && larger == 0 || k == 1000 && smaller == 0 {
			t.Fatalf("k=%d: %d walks with more distinct grams than the vocabulary, %d with no more", k, larger, smaller)
		}
	}

	// A vocabulary holding the largest packable label, and 1-grams.
	top := MaxPackedLabel
	v := Restore([]string{Key([]int{top}), Key([]int{top, 0}), Key([]int{0, top, 1}), "0|1"}, []float64{0.5, 1.5, 2.5, 3.5}, 6, false)
	if !v.PackedReady() {
		t.Fatal("vocabulary at MaxPackedLabel must pack")
	}
	for _, ns := range nss {
		checkSlots(t, v, []int{top, 0, top, 1, top + 1, 0, 1, top, 0}, ns)
	}
}

// TestSlotCountsAggregate pins extraction's aggregate: summing slot
// counts and totals over walks equals merging their GramCounters, and
// VectorSlotsInto over the sums equals VectorPackedInto over the merge.
func TestSlotCountsAggregate(t *testing.T) {
	_, corpus := corpusPair(t, 30, 80, []int{2, 3, 4})
	v := FitPacked(corpus, 60)
	v.L2 = true
	rng := rand.New(rand.NewSource(23))
	ns := []int{2, 3, 4}
	agg := NewGramCounter()
	sums := make([]int, len(v.Vocab))
	walk := make([]int, len(v.Vocab))
	total := 0
	dst := nanFilled(v.Dim)
	for w := 0; w < 10; w++ {
		tr := make([]int, 100+rng.Intn(200))
		for i := range tr {
			tr[i] = rng.Intn(81)
		}
		c := NewGramCounter()
		c.AddTrace(tr, ns)
		agg.Merge(c)
		clear(walk)
		n := v.CountSlots(walk, tr, ns)
		for s, x := range walk {
			sums[s] += x
		}
		total += n
		dst = v.VectorSlotsInto(dst, walk, n)
		if i := sameBits(dst, v.VectorPackedInto(nil, c)); i >= 0 {
			t.Fatalf("walk %d slot %d differs", w, i)
		}
	}
	if total != agg.Total() {
		t.Fatalf("summed totals %d, merged Total %d", total, agg.Total())
	}
	if i := sameBits(v.VectorSlotsInto(nanFilled(v.Dim), sums, total), v.VectorPackedInto(nil, agg)); i >= 0 {
		t.Fatalf("aggregate slot %d differs", i)
	}
}

func TestSlotTableRejectsRepeatedEntries(t *testing.T) {
	// Two slots cannot share one packed key; such a vocabulary is
	// served by the string path.
	if Restore([]string{"1|2", "3|4", "1|2"}, []float64{1, 1, 1}, 3, false).PackedReady() {
		t.Fatal("a repeated vocabulary entry must disable packed lookups")
	}
	v := Restore([]string{"1|2", "3|4"}, []float64{1, 1}, 3, false)
	if !v.PackedReady() {
		t.Fatal("distinct entries must pack")
	}
}

func TestSlotTableSizing(t *testing.T) {
	for _, n := range []int{0, 1, 7, 127, 128, 500} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = Pack([]int{i, i + 1})
		}
		tab, ok := newSlotTable(keys)
		if !ok {
			t.Fatalf("n=%d: distinct keys rejected", n)
		}
		if len(tab.keys) < slotLoad*n || len(tab.keys)&(len(tab.keys)-1) != 0 {
			t.Fatalf("n=%d: %d cells, want a power of two ≥ %d", n, len(tab.keys), slotLoad*n)
		}
		for i, k := range keys {
			if s := tab.find(k); s != i {
				t.Fatalf("n=%d: key %d found at slot %d", n, i, s)
			}
		}
		if s := tab.find(Pack([]int{n + 5, 0})); s != -1 {
			t.Fatalf("n=%d: absent key found at slot %d", n, s)
		}
	}
}

func TestCountSlotsZeroAllocs(t *testing.T) {
	_, corpus := corpusPair(t, 20, 200, []int{2, 3, 4})
	v := FitPacked(corpus, 128)
	v.L2 = true
	trace := make([]int, 2215) // one 5·|V|-step walk of a 443-node CFG
	rng := rand.New(rand.NewSource(5))
	for i := range trace {
		trace[i] = rng.Intn(201)
	}
	counts := make([]int, len(v.Vocab))
	dst := make([]float64, v.Dim)
	allocs := testing.AllocsPerRun(50, func() {
		clear(counts)
		n := v.CountSlots(counts, trace, DefaultNs)
		dst = v.VectorSlotsInto(dst, counts, n)
	})
	if allocs != 0 {
		t.Fatalf("counting and vectorizing a walk allocates %.1f/op, want 0", allocs)
	}
}

// TestCountSlotsSharedVectorizer has many goroutines count against one
// Vectorizer, as every extraction worker does; each must get the
// serial result (and -race must see no write to the shared table).
func TestCountSlotsSharedVectorizer(t *testing.T) {
	_, corpus := corpusPair(t, 20, 60, []int{2, 3, 4})
	v := FitPacked(corpus, 100)
	rng := rand.New(rand.NewSource(29))
	traces := make([][]int, 16)
	want := make([][]int, len(traces))
	totals := make([]int, len(traces))
	for i := range traces {
		traces[i] = make([]int, 200+rng.Intn(300))
		for j := range traces[i] {
			traces[i][j] = rng.Intn(61)
		}
		want[i] = make([]int, len(v.Vocab))
		totals[i] = v.CountSlots(want[i], traces[i], DefaultNs)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			counts := make([]int, len(v.Vocab))
			for r := 0; r < 20; r++ {
				i := (g + r) % len(traces)
				clear(counts)
				if total := v.CountSlots(counts, traces[i], DefaultNs); total != totals[i] {
					t.Errorf("goroutine %d trace %d: total %d, want %d", g, i, total, totals[i])
					return
				}
				for s := range counts {
					if counts[s] != want[i][s] {
						t.Errorf("goroutine %d trace %d slot %d: %d, want %d", g, i, s, counts[s], want[i][s])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
