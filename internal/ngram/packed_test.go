package ngram

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	grams := [][]int{
		{0},
		{1},
		{MaxPackedLabel},
		{0, 0},
		{1, 2},
		{MaxPackedLabel, 0},
		{3, 1, 4},
		{1, 2, 3, 4},
		{MaxPackedLabel, MaxPackedLabel, MaxPackedLabel, MaxPackedLabel},
	}
	var buf []int
	for _, g := range grams {
		k := Pack(g)
		buf = Unpack(k, buf)
		if !reflect.DeepEqual([]int(buf), g) {
			t.Fatalf("roundtrip %v -> %#x -> %v", g, k, buf)
		}
		if KeyString(k) != Key(g) {
			t.Fatalf("KeyString(%v) = %q, want %q", g, KeyString(k), Key(g))
		}
	}
}

func TestPackDistinctGramsDistinctKeys(t *testing.T) {
	// Distinct grams (including same labels at different lengths, and
	// zero-padded prefixes) must map to distinct keys.
	grams := [][]int{
		{0}, {0, 0}, {0, 0, 0}, {0, 0, 0, 0},
		{1}, {1, 0}, {0, 1}, {1, 0, 0}, {0, 0, 1},
		{5, 7}, {7, 5},
	}
	seen := make(map[uint64][]int)
	for _, g := range grams {
		k := Pack(g)
		if prev, ok := seen[k]; ok {
			t.Fatalf("collision: %v and %v both pack to %#x", prev, g, k)
		}
		seen[k] = g
	}
}

func TestPackable(t *testing.T) {
	if !Packable(MaxPackedLabel, []int{2, 3, 4}) {
		t.Fatal("max label with paper lengths must pack")
	}
	if Packable(MaxPackedLabel+1, []int{2}) {
		t.Fatal("label beyond 15 bits must not pack")
	}
	if Packable(10, []int{2, 5}) {
		t.Fatal("gram length above 4 must not pack")
	}
	if !Packable(10, []int{-1, 0, 4}) {
		t.Fatal("non-positive lengths are skipped by counting and must not block packing")
	}
}

func TestParseKey(t *testing.T) {
	got, err := ParseKey("12|0|345")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{12, 0, 345}) {
		t.Fatalf("ParseKey = %v", got)
	}
	for _, bad := range []string{"", "a|b", "1||2", "-1|2"} {
		if _, err := ParseKey(bad); err == nil {
			t.Fatalf("ParseKey(%q) should error", bad)
		}
	}
}

func TestGramCounterMatchesStringGrams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ns := []int{2, 3, 4}
	for trial := 0; trial < 20; trial++ {
		trace := make([]int, 5+rng.Intn(200))
		for i := range trace {
			trace[i] = rng.Intn(300) // multi-digit labels exercise key rendering
		}
		c := NewGramCounter()
		c.AddTrace(trace, ns)
		want := Grams(trace, ns)
		if got := c.Strings(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: packed counts diverge from string counts", trial)
		}
		wantTotal := 0
		for _, n := range want {
			wantTotal += n
		}
		if c.Total() != wantTotal {
			t.Fatalf("trial %d: Total = %d, want %d", trial, c.Total(), wantTotal)
		}
	}
}

func TestGramCounterResetAndMerge(t *testing.T) {
	a := NewGramCounter()
	a.AddTrace([]int{1, 2, 3}, []int{2})
	b := NewGramCounter()
	b.AddTrace([]int{1, 2}, []int{2})
	a.Merge(b)
	if a.Count(Pack([]int{1, 2})) != 2 || a.Count(Pack([]int{2, 3})) != 1 {
		t.Fatalf("merge counts wrong: %v", a.Strings())
	}
	if a.Total() != 3 {
		t.Fatalf("merged Total = %d, want 3", a.Total())
	}
	a.Reset()
	if a.Len() != 0 || a.Total() != 0 {
		t.Fatalf("Reset left state: len=%d total=%d", a.Len(), a.Total())
	}
}

// corpusPair builds the same random corpus in both representations.
func corpusPair(t *testing.T, samples, maxLabel int, ns []int) ([]map[string]int, []*GramCounter) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	strCorpus := make([]map[string]int, samples)
	packCorpus := make([]*GramCounter, samples)
	for i := range strCorpus {
		trace := make([]int, 20+rng.Intn(150))
		for j := range trace {
			trace[j] = rng.Intn(maxLabel + 1)
		}
		strCorpus[i] = Grams(trace, ns)
		c := NewGramCounter()
		c.AddTrace(trace, ns)
		packCorpus[i] = c
	}
	return strCorpus, packCorpus
}

func TestFitPackedMatchesFit(t *testing.T) {
	// Multi-digit labels make numeric and lexicographic gram order
	// disagree, so this exercises the string tie-break FitPacked must
	// reproduce for seed-identical vocabularies.
	ns := []int{2, 3, 4}
	strCorpus, packCorpus := corpusPair(t, 30, 120, ns)
	for _, k := range []int{10, 50, 100000} {
		sv := Fit(strCorpus, k)
		pv := FitPacked(packCorpus, k)
		if !reflect.DeepEqual(sv.Vocab, pv.Vocab) {
			t.Fatalf("k=%d: vocab differs:\nstring: %v\npacked: %v", k, sv.Vocab[:5], pv.Vocab[:5])
		}
		if !reflect.DeepEqual(sv.IDF, pv.IDF) {
			t.Fatalf("k=%d: IDF differs", k)
		}
		if sv.Dim != pv.Dim {
			t.Fatalf("k=%d: dim %d vs %d", k, sv.Dim, pv.Dim)
		}
		if !pv.PackedReady() || !sv.PackedReady() {
			t.Fatalf("k=%d: both vectorizers should be packed-ready", k)
		}
	}
}

func TestVectorPackedMatchesVector(t *testing.T) {
	ns := []int{2, 3}
	strCorpus, packCorpus := corpusPair(t, 20, 90, ns)
	sv := Fit(strCorpus, 40)
	pv := FitPacked(packCorpus, 40)
	for i := range strCorpus {
		c := packCorpus[i]
		want := sv.Vector(strCorpus[i])
		got := pv.VectorPacked(c)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("sample %d: packed vector differs from string vector", i)
		}
		// Cross-path: a string-fitted vectorizer must serve packed
		// lookups identically (the Restore scenario).
		if cross := sv.VectorPacked(c); !reflect.DeepEqual(want, cross) {
			t.Fatalf("sample %d: string-fitted packed lookup differs", i)
		}
	}
}

// referenceVectorPacked is the counter-side TF-IDF loop
// VectorPackedInto replaced, kept as its oracle: one slot lookup per
// distinct gram in the counter.
func referenceVectorPacked(v *Vectorizer, c *GramCounter) []float64 {
	slot := make(map[uint64]int, len(v.pkeys))
	for i, g := range v.pkeys {
		slot[g] = i
	}
	out := make([]float64, v.Dim)
	if c.total == 0 {
		return out
	}
	total := float64(c.total)
	for g, n := range c.counts {
		i, ok := slot[g]
		if !ok {
			continue
		}
		tf := float64(n) / total
		out[i] = tf * v.IDF[i]
	}
	normalize(out)
	return out
}

func TestVectorPackedMatchesReference(t *testing.T) {
	_, corpus := corpusPair(t, 40, 60, []int{2, 3, 4})
	// Most samples' distinct grams outnumber a 40-entry vocabulary; a
	// 1000-entry one outnumbers every sample's.
	larger, smaller := 0, 0
	for _, k := range []int{40, 1000} {
		v := FitPacked(corpus, k)
		dst := make([]float64, k)
		for i := range dst {
			dst[i] = math.NaN() // reuse must overwrite every slot
		}
		for i, c := range append(corpus, NewGramCounter()) {
			if c.Len() > len(v.Vocab) {
				larger++
			} else {
				smaller++
			}
			want := referenceVectorPacked(v, c)
			dst = v.VectorPackedInto(dst, c)
			for j := range want {
				if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
					t.Fatalf("k=%d sample %d slot %d: %v, want %v", k, i, j, dst[j], want[j])
				}
			}
		}
	}
	if larger == 0 || smaller == 0 {
		t.Fatalf("%d counters larger and %d no larger than the vocabulary, want both", larger, smaller)
	}
}

func TestVectorPackedEmptyCounter(t *testing.T) {
	_, packCorpus := corpusPair(t, 5, 50, []int{2})
	v := FitPacked(packCorpus, 10)
	out := v.VectorPacked(NewGramCounter())
	if len(out) != 10 {
		t.Fatalf("dim = %d", len(out))
	}
	for _, x := range out {
		if x != 0 {
			t.Fatal("empty counter must produce the zero vector")
		}
	}
}

func TestRestoreBuildsPackedIndex(t *testing.T) {
	_, packCorpus := corpusPair(t, 10, 60, []int{2, 3})
	v := FitPacked(packCorpus, 20)
	r := Restore(v.Vocab, v.IDF, v.Dim)
	if !r.PackedReady() {
		t.Fatal("restored vectorizer with packable vocab should be packed-ready")
	}
	for i := range packCorpus {
		if !reflect.DeepEqual(v.VectorPacked(packCorpus[i]), r.VectorPacked(packCorpus[i])) {
			t.Fatalf("sample %d: restored packed vectors differ", i)
		}
	}
}

func TestPackedIndexFallback(t *testing.T) {
	// A vocabulary with an unpackable entry (gram length 5) must disable
	// the packed index while keeping the string path functional.
	corpus := []map[string]int{{"1|2|3|4|5": 3, "1|2": 2}}
	v := Fit(corpus, 5)
	if v.PackedReady() {
		t.Fatal("5-gram vocab must not be packed-ready")
	}
	vec := v.Vector(corpus[0])
	if len(vec) != 5 {
		t.Fatalf("dim = %d", len(vec))
	}
	// Labels beyond 15 bits likewise.
	big := []map[string]int{{Key([]int{MaxPackedLabel + 1, 0}): 1}}
	if Fit(big, 3).PackedReady() {
		t.Fatal("oversized label vocab must not be packed-ready")
	}
	// A non-canonical entry would pack to another entry's key.
	if Restore([]string{"1|2", "01|2"}, []float64{1, 1}, 2).PackedReady() {
		t.Fatal("non-canonical vocab must not be packed-ready")
	}
}

func TestAddTraceSteadyStateAllocFree(t *testing.T) {
	trace := make([]int, 400)
	rng := rand.New(rand.NewSource(5))
	for i := range trace {
		trace[i] = rng.Intn(200)
	}
	c := NewGramCounter()
	ns := []int{2, 3, 4}
	c.AddTrace(trace, ns) // warm the buckets
	allocs := testing.AllocsPerRun(50, func() {
		c.Reset()
		c.AddTrace(trace, ns)
	})
	if allocs > 0 {
		t.Fatalf("steady-state AddTrace allocates %.1f/op, want 0", allocs)
	}
}
