package ngram

import (
	"math"
	"reflect"
	"testing"
)

func TestKey(t *testing.T) {
	if got := Key([]int{1, 2, 3}); got != "1|2|3" {
		t.Fatalf("Key = %q", got)
	}
	if got := Key([]int{7}); got != "7" {
		t.Fatalf("Key = %q", got)
	}
}

func TestGramsCounts(t *testing.T) {
	trace := []int{1, 2, 1, 2}
	got := Grams(trace, []int{2})
	want := map[string]int{"1|2": 2, "2|1": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Grams = %v, want %v", got, want)
	}
}

func TestGramsMultipleLengths(t *testing.T) {
	trace := []int{0, 1, 2}
	got := Grams(trace, []int{2, 3})
	want := map[string]int{"0|1": 1, "1|2": 1, "0|1|2": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Grams = %v, want %v", got, want)
	}
}

func TestGramsShortTraceAndBadN(t *testing.T) {
	if got := Grams([]int{5}, []int{2, 3}); len(got) != 0 {
		t.Fatalf("Grams on short trace = %v, want empty", got)
	}
	if got := Grams([]int{1, 2, 3}, []int{0, -1}); len(got) != 0 {
		t.Fatalf("Grams with bad n = %v, want empty", got)
	}
}

func TestAddGramsAccumulates(t *testing.T) {
	counts := map[string]int{"1|2": 5}
	AddGrams(counts, []int{1, 2}, []int{2})
	if counts["1|2"] != 6 {
		t.Fatalf("AddGrams did not accumulate: %v", counts)
	}
}

func TestFitSelectsByDocumentFrequency(t *testing.T) {
	corpus := []map[string]int{
		{"a": 1, "b": 9},
		{"a": 1, "c": 1},
		{"a": 1},
	}
	v := Fit(corpus, 2)
	// "a" in 3 docs, "b" and "c" in 1 each; "b" wins on total frequency.
	if !reflect.DeepEqual(v.Vocab, []string{"a", "b"}) {
		t.Fatalf("Vocab = %v", v.Vocab)
	}
	if !v.Contains("a") || v.Contains("c") {
		t.Fatal("Contains wrong")
	}
}

func TestFitTieBreaksLexicographic(t *testing.T) {
	corpus := []map[string]int{{"z": 1, "a": 1}}
	v := Fit(corpus, 2)
	if !reflect.DeepEqual(v.Vocab, []string{"a", "z"}) {
		t.Fatalf("Vocab = %v, want [a z]", v.Vocab)
	}
}

func TestFitVocabSmallerThanK(t *testing.T) {
	v := Fit([]map[string]int{{"a": 1}}, 10)
	if len(v.Vocab) != 1 || v.Dim != 10 {
		t.Fatalf("Vocab = %v, Dim = %d", v.Vocab, v.Dim)
	}
	vec := v.Vector(map[string]int{"a": 3})
	if len(vec) != 10 {
		t.Fatalf("vector length = %d, want 10", len(vec))
	}
	for i := 1; i < 10; i++ {
		if vec[i] != 0 {
			t.Fatalf("padding dimension %d nonzero", i)
		}
	}
}

func TestVectorIsL2Normalized(t *testing.T) {
	corpus := []map[string]int{
		{"a": 2, "b": 1},
		{"b": 3, "c": 1},
	}
	v := Fit(corpus, 3)
	vec := v.Vector(map[string]int{"a": 4, "b": 2, "unseen": 7})
	var norm float64
	for _, x := range vec {
		norm += x * x
	}
	if math.Abs(norm-1.0) > 1e-9 {
		t.Fatalf("L2 norm^2 = %v, want 1", norm)
	}
}

func TestVectorIgnoresUnseenGrams(t *testing.T) {
	v := Fit([]map[string]int{{"a": 1}}, 5)
	vec := v.Vector(map[string]int{"zz": 100})
	for i, x := range vec {
		if x != 0 {
			t.Fatalf("vec[%d] = %v for all-unseen input", i, x)
		}
	}
}

func TestVectorEmptyInput(t *testing.T) {
	v := Fit([]map[string]int{{"a": 1}}, 5)
	vec := v.Vector(map[string]int{})
	if len(vec) != 5 {
		t.Fatalf("vector length = %d", len(vec))
	}
	for _, x := range vec {
		if x != 0 {
			t.Fatal("empty input should produce zero vector")
		}
	}
}

func TestIDFOrdering(t *testing.T) {
	// A gram in every document must have lower IDF than a rarer one.
	corpus := []map[string]int{
		{"common": 1, "rare": 1},
		{"common": 1},
		{"common": 1},
		{"common": 1},
	}
	v := Fit(corpus, 2)
	var idfCommon, idfRare float64
	for i, g := range v.Vocab {
		switch g {
		case "common":
			idfCommon = v.IDF[i]
		case "rare":
			idfRare = v.IDF[i]
		}
	}
	if idfCommon >= idfRare {
		t.Fatalf("IDF(common)=%v >= IDF(rare)=%v", idfCommon, idfRare)
	}
}

func TestDefaultParameters(t *testing.T) {
	if !reflect.DeepEqual(DefaultNs, []int{2, 3, 4}) {
		t.Fatalf("DefaultNs = %v", DefaultNs)
	}
	if DefaultTopK != 500 {
		t.Fatalf("DefaultTopK = %d", DefaultTopK)
	}
}
