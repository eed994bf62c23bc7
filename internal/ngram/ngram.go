// Package ngram turns random-walk traces into fixed-size feature
// vectors: n-grams of lengths 2, 3, and 4 are extracted from the label
// sequences, a vocabulary of the top-k most frequent grams is selected
// over the training corpus, and vectors are weighted with TF-IDF — the
// paper's node2vec-inspired representation (section III-B.2).
package ngram

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// DefaultNs are the paper's n-gram lengths.
var DefaultNs = []int{2, 3, 4}

// DefaultTopK is the paper's vocabulary size per labeling scheme.
const DefaultTopK = 500

// Key renders a gram (a short label sequence) as a map key.
func Key(gram []int) string {
	var b strings.Builder
	for i, v := range gram {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// Grams counts every n-gram of the given lengths in a trace.
func Grams(trace []int, ns []int) map[string]int {
	counts := make(map[string]int)
	AddGrams(counts, trace, ns)
	return counts
}

// AddGrams accumulates the trace's n-grams into counts.
func AddGrams(counts map[string]int, trace []int, ns []int) {
	for _, n := range ns {
		if n <= 0 {
			continue
		}
		for i := 0; i+n <= len(trace); i++ {
			counts[Key(trace[i:i+n])]++
		}
	}
}

// Vectorizer maps gram-count maps to fixed-size TF-IDF vectors over a
// vocabulary selected at fit time. The zero value is unusable; build one
// with Fit.
type Vectorizer struct {
	// Vocab is the selected grams in a fixed, deterministic order.
	Vocab []string
	// IDF holds the smoothed inverse document frequency per vocab entry.
	IDF []float64
	// Dim is the output vector length (>= len(Vocab); extra dimensions
	// stay zero so vector sizes are stable regardless of corpus size).
	Dim int
	// L2 enables L2 normalization of output vectors. Off by default:
	// normalization erases the out-of-vocabulary mass signal — a sample
	// whose grams mostly fall outside the vocabulary (e.g. a GEA merge)
	// shows up as a depressed in-vocabulary total, which the detector
	// relies on.
	L2 bool

	index map[string]int
	// pkeys holds the packed form of each vocab entry, by slot; nil
	// when some entry cannot pack (see Packable), is not in the form
	// Key renders or repeats another, in which case only the string
	// path is available.
	pkeys []uint64
	// slots maps each of pkeys to its slot (see CountSlots). Built with
	// pkeys, never lazily, so concurrent readers need no lock.
	slots slotTable
}

// idf is the smoothed inverse document frequency shared by every fit
// path (n = corpus size, df = document frequency of the gram).
func idf(n float64, df int) float64 {
	return math.Log(n/(1.0+float64(df))) + 1.0
}

// normalize L2-normalizes the vector in place, accumulating the norm in
// index order so results do not depend on map iteration order (float
// addition is not associative).
func normalize(out []float64) {
	var norm float64
	for _, x := range out {
		norm += x * x
	}
	if norm > 0 {
		inv := 1.0 / math.Sqrt(norm)
		for i := range out {
			out[i] *= inv
		}
	}
}

// Fit selects the top-k grams by document frequency over the corpus
// (ties broken by total frequency, then lexicographically) and computes
// IDF weights. Each corpus entry is one training sample's aggregated
// gram counts. The returned vectorizer always produces vectors of
// length k.
func Fit(corpus []map[string]int, k int) *Vectorizer {
	df := make(map[string]int)
	total := make(map[string]int)
	for _, counts := range corpus {
		for g, c := range counts {
			df[g]++
			total[g] += c
		}
	}
	grams := make([]string, 0, len(df))
	for g := range df {
		grams = append(grams, g)
	}
	sort.Slice(grams, func(i, j int) bool {
		a, b := grams[i], grams[j]
		if df[a] != df[b] {
			return df[a] > df[b]
		}
		if total[a] != total[b] {
			return total[a] > total[b]
		}
		return a < b
	})
	if len(grams) > k {
		grams = grams[:k]
	}
	v := &Vectorizer{
		Vocab: grams,
		IDF:   make([]float64, len(grams)),
		Dim:   k,
		index: make(map[string]int, len(grams)),
	}
	n := float64(len(corpus))
	for i, g := range grams {
		v.index[g] = i
		v.IDF[i] = idf(n, df[g])
	}
	v.buildPackedIndex()
	return v
}

// Vector produces the TF-IDF vector of one sample's gram counts. Term
// frequency is relative to the sample's total gram count (including
// out-of-vocabulary grams), so vector magnitude encodes how much of the
// sample's walk mass the vocabulary captures. With L2 set, the vector
// is additionally L2-normalized.
func (v *Vectorizer) Vector(counts map[string]int) []float64 {
	out := make([]float64, v.Dim)
	totalGrams := 0
	for _, c := range counts {
		totalGrams += c
	}
	if totalGrams == 0 {
		return out
	}
	for g, c := range counts {
		i, ok := v.index[g]
		if !ok {
			continue
		}
		tf := float64(c) / float64(totalGrams)
		out[i] = tf * v.IDF[i]
	}
	if v.L2 {
		normalize(out)
	}
	return out
}

// Contains reports whether a gram is in the vocabulary.
func (v *Vectorizer) Contains(gram string) bool {
	_, ok := v.index[gram]
	return ok
}

// Restore rebuilds a vectorizer from persisted state (the exported
// fields of a fitted Vectorizer).
func Restore(vocab []string, idf []float64, dim int, l2 bool) *Vectorizer {
	v := &Vectorizer{
		Vocab: append([]string(nil), vocab...),
		IDF:   append([]float64(nil), idf...),
		Dim:   dim,
		L2:    l2,
		index: make(map[string]int, len(vocab)),
	}
	for i, g := range v.Vocab {
		v.index[g] = i
	}
	v.buildPackedIndex()
	return v
}
