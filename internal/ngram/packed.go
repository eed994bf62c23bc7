package ngram

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Packed gram keys
//
// Walk-trace labels are permutation indices in [0, |V|), and the
// paper's n-gram lengths never exceed 4, so a whole gram fits in one
// uint64: 15 bits per label (label j of the gram occupies bits
// [15j, 15j+15)) plus the gram length in the top 4 bits. Counting grams
// on packed keys removes the per-occurrence string allocation of the
// legacy map[string]int path. GramCounter counts every packed gram,
// which fitting needs (document frequency covers every gram); serving
// counts only vocabulary grams, into slots (see CountSlots).
//
// A vocabulary entry with a label above MaxPackedLabel or more than
// MaxPackedN labels cannot pack; such a vocabulary is served by the
// string-keyed path (Grams/AddGrams/Vector), which produces identical
// vectors.
const (
	// PackBits is the width of one label field in a packed key.
	PackBits = 15
	// MaxPackedLabel is the largest label value a packed key can hold.
	MaxPackedLabel = 1<<PackBits - 1
	// MaxPackedN is the largest gram length a packed key can hold.
	MaxPackedN = 4

	packMask = 1<<PackBits - 1
	lenShift = 60
)

// Packable reports whether every gram over labels in [0, maxLabel] with
// the given lengths fits a packed key. Non-positive lengths are ignored
// (the counting loops skip them).
func Packable(maxLabel int, ns []int) bool {
	if maxLabel > MaxPackedLabel {
		return false
	}
	for _, n := range ns {
		if n > MaxPackedN {
			return false
		}
	}
	return true
}

// Pack encodes a gram (len in [1, MaxPackedN], labels in
// [0, MaxPackedLabel]) as a single key.
func Pack(gram []int) uint64 {
	return PackAt(gram, 0, len(gram))
}

// PackAt encodes the length-n window of trace starting at i.
func PackAt(trace []int, i, n int) uint64 {
	k := uint64(n) << lenShift
	for j := 0; j < n; j++ {
		k |= uint64(trace[i+j]) << (uint(j) * PackBits)
	}
	return k
}

// Unpack appends the packed key's labels to buf[:0] and returns it.
func Unpack(key uint64, buf []int) []int {
	n := int(key >> lenShift)
	buf = buf[:0]
	for j := 0; j < n; j++ {
		buf = append(buf, int(key>>(uint(j)*PackBits))&packMask)
	}
	return buf
}

// KeyString renders a packed key in the legacy string form ("a|b|c"),
// the representation used for vocabulary persistence.
func KeyString(key uint64) string {
	return Key(Unpack(key, make([]int, 0, MaxPackedN)))
}

// ParseKey parses the legacy string form of a gram back into labels.
func ParseKey(s string) ([]int, error) {
	parts := strings.Split(s, "|")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("ngram: bad gram key %q: %w", s, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("ngram: negative label in gram key %q", s)
		}
		out[i] = v
	}
	return out, nil
}

// GramCounter accumulates packed-gram occurrence counts. It is the
// allocation-free counterpart of the map[string]int gram maps: resetting
// and refilling a counter with a similar trace reuses the map's buckets,
// so steady-state counting does not allocate. Not safe for concurrent
// use; pool one per worker.
type GramCounter struct {
	counts map[uint64]int
	total  int
}

// NewGramCounter returns an empty counter.
func NewGramCounter() *GramCounter {
	return &GramCounter{counts: make(map[uint64]int)}
}

// Reset empties the counter but keeps its capacity.
func (c *GramCounter) Reset() {
	clear(c.counts)
	c.total = 0
}

// AddTrace counts every n-gram of the given lengths in trace. All
// lengths must satisfy Packable; non-positive lengths are skipped.
func (c *GramCounter) AddTrace(trace []int, ns []int) {
	for _, n := range ns {
		if n <= 0 {
			continue
		}
		for i := 0; i+n <= len(trace); i++ {
			c.counts[PackAt(trace, i, n)]++
			c.total++
		}
	}
}

// Add counts one occurrence of a packed gram.
func (c *GramCounter) Add(key uint64) {
	c.counts[key]++
	c.total++
}

// Merge adds every count of other into c.
func (c *GramCounter) Merge(other *GramCounter) {
	for k, v := range other.counts {
		c.counts[k] += v
	}
	c.total += other.total
}

// Count returns the occurrence count of one packed gram.
func (c *GramCounter) Count(key uint64) int { return c.counts[key] }

// Len returns the number of distinct grams.
func (c *GramCounter) Len() int { return len(c.counts) }

// Total returns the total gram occurrence count (the TF denominator).
func (c *GramCounter) Total() int { return c.total }

// Counts exposes the underlying map (read-only by convention).
func (c *GramCounter) Counts() map[uint64]int { return c.counts }

// Strings renders the counter in the legacy map[string]int form (test
// and debugging helper; allocates freely).
func (c *GramCounter) Strings() map[string]int {
	out := make(map[string]int, len(c.counts))
	for k, v := range c.counts {
		out[KeyString(k)] += v
	}
	return out
}

// FitPacked is Fit over packed-gram corpora. Vocabulary selection is
// identical to the string path — top-k by document frequency, ties by
// total frequency, then by the *string* form of the gram (so a model
// fitted on packed counters selects, orders, and weights exactly the
// grams the legacy path would) — and the resulting vectorizer carries
// both the string index and the packed index.
func FitPacked(corpus []*GramCounter, k int) *Vectorizer {
	df := make(map[uint64]int)
	total := make(map[uint64]int)
	for _, c := range corpus {
		for g, n := range c.counts {
			df[g]++
			total[g] += n
		}
	}
	keys := make([]uint64, 0, len(df))
	strs := make(map[uint64]string, len(df))
	var buf []int
	for g := range df {
		keys = append(keys, g)
		buf = Unpack(g, buf)
		strs[g] = Key(buf)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if df[a] != df[b] {
			return df[a] > df[b]
		}
		if total[a] != total[b] {
			return total[a] > total[b]
		}
		return strs[a] < strs[b]
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	v := &Vectorizer{
		Vocab: make([]string, len(keys)),
		IDF:   make([]float64, len(keys)),
		Dim:   k,
		index: make(map[string]int, len(keys)),
	}
	n := float64(len(corpus))
	for i, g := range keys {
		s := strs[g]
		v.Vocab[i] = s
		v.index[s] = i
		v.IDF[i] = idf(n, df[g])
	}
	v.pkeys = append([]uint64(nil), keys...)
	v.slots, _ = newSlotTable(v.pkeys) // map keys are distinct
	return v
}

// PackedReady reports whether the vectorizer can serve packed lookups
// and slot counting (every vocabulary entry parsed into a distinct
// packable gram).
func (v *Vectorizer) PackedReady() bool { return v.pkeys != nil }

// VectorPacked is Vector over a packed-gram counter. It produces
// bit-identical output to Vector on the equivalent string-keyed counts:
// the TF denominator includes out-of-vocabulary grams, each output slot
// is written once, and the L2 norm accumulates in index order. Callers
// must check PackedReady.
func (v *Vectorizer) VectorPacked(c *GramCounter) []float64 {
	return v.VectorPackedInto(nil, c)
}

// VectorPackedInto is VectorPacked with caller-provided storage: dst is
// reused when its capacity suffices (contents are overwritten), and the
// returned slice has length Dim. It looks up each vocabulary entry in
// the counter, so its cost follows the vocabulary size, not the number
// of distinct grams a large CFG's walks produce. Output is
// bit-identical to VectorPacked — the buffer is zeroed before the
// single write per occupied slot, so reuse can never leak a previous
// vector's values.
func (v *Vectorizer) VectorPackedInto(dst []float64, c *GramCounter) []float64 {
	out := v.output(dst)
	if c.total == 0 {
		return out
	}
	// Same op sequence as Vector (divide, then scale by IDF) so packed
	// and string paths round identically.
	total := float64(c.total)
	for i, g := range v.pkeys {
		if n, ok := c.counts[g]; ok {
			tf := float64(n) / total
			out[i] = tf * v.IDF[i]
		}
	}
	if v.L2 {
		normalize(out)
	}
	return out
}

// output returns dst resized to Dim and zeroed, or a fresh vector when
// dst is too small.
func (v *Vectorizer) output(dst []float64) []float64 {
	if cap(dst) < v.Dim {
		return make([]float64, v.Dim)
	}
	out := dst[:v.Dim]
	clear(out)
	return out
}

// buildPackedIndex derives the packed keys and slot table from the
// string vocabulary. It leaves packed lookups disabled (pkeys nil) when
// any entry cannot pack (a label above MaxPackedLabel or more than
// MaxPackedN labels), is not in the canonical form Key renders, or
// repeats another entry, so that every slot has its own packed key.
func (v *Vectorizer) buildPackedIndex() {
	pkeys := make([]uint64, len(v.Vocab))
	for i, s := range v.Vocab {
		gram, err := ParseKey(s)
		if err != nil || len(gram) == 0 || len(gram) > MaxPackedN || Key(gram) != s {
			return
		}
		for _, lab := range gram {
			if lab > MaxPackedLabel {
				return
			}
		}
		pkeys[i] = Pack(gram)
	}
	if t, ok := newSlotTable(pkeys); ok {
		v.pkeys, v.slots = pkeys, t
	}
}
