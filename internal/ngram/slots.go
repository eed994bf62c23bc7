package ngram

// Slot counting
//
// Only vocabulary grams reach a vector; every other gram only adds to
// the TF denominator, and per trace that denominator has a closed form:
// Σₙ max(0, L−n+1) over the lengths n > 0 in Ns. So extraction never
// needs a map of every gram a walk produces. A packed vocabulary
// carries a fixed open-addressing table from packed key to slot, and
// CountSlots walks a trace once: at each position it extends the key
// one label at a time up to the longest packable length in Ns, probes
// the table at the lengths Ns asks for, and adds hits into a
// slot-count array. VectorSlotsInto then performs exactly
// VectorPackedInto's float operations on those counts, so vectors are
// bit-identical to counting every gram in a GramCounter.

// slotLoad is the minimum ratio of table cells to vocabulary entries.
// At a load factor of at most 1/8, a probe for a gram outside the
// vocabulary — nearly every probe — usually ends at its first cell.
const slotLoad = 8

// hashMul is the 64-bit Fibonacci hashing multiplier (2⁶⁴/φ); the top
// bits of key·hashMul index the table.
const hashMul = 0x9E3779B97F4A7C15

// slotTable maps packed vocabulary keys to their slots by linear
// probing. An empty cell holds key 0, which no packed key equals: every
// key carries a length tag of at least 1 in its top bits. The table is
// built once and only read afterwards, so any number of goroutines may
// probe it at once.
type slotTable struct {
	keys  []uint64
	slots []int32
	mask  uint64
	shift uint
}

// newSlotTable indexes pkeys by slot. It reports false when two slots
// share a key, which a slot table cannot represent.
func newSlotTable(pkeys []uint64) (slotTable, bool) {
	size, bits := 1, uint(0)
	for size < slotLoad*len(pkeys) || size < slotLoad {
		size <<= 1
		bits++
	}
	t := slotTable{
		keys:  make([]uint64, size),
		slots: make([]int32, size),
		mask:  uint64(size - 1),
		shift: 64 - bits,
	}
	for slot, k := range pkeys {
		h := (k * hashMul) >> t.shift
		for t.keys[h] != 0 {
			if t.keys[h] == k {
				return slotTable{}, false
			}
			h = (h + 1) & t.mask
		}
		t.keys[h] = k
		t.slots[h] = int32(slot)
	}
	return t, true
}

// find returns key's slot, or -1 when key is not in the vocabulary.
func (t *slotTable) find(key uint64) int {
	h := (key * hashMul) >> t.shift
	for {
		switch t.keys[h] {
		case key:
			return int(t.slots[h])
		case 0:
			return -1
		}
		h = (h + 1) & t.mask
	}
}

// CountSlots counts every n-gram of the lengths in ns in trace into
// counts, indexed by vocabulary slot, and returns the number of n-grams
// of those lengths in trace, in the vocabulary or not: the TF
// denominator, Σ max(0, len(trace)−n+1) over n > 0. It adds to counts
// without clearing them, so successive traces accumulate. It agrees
// with GramCounter.AddTrace restricted to the vocabulary, plus Total:
// non-positive lengths are skipped, a repeated length counts once per
// repetition, and a gram holding a label outside [0, MaxPackedLabel]
// or longer than MaxPackedN counts only toward the total, since no
// packed vocabulary entry can equal it. counts must have at least
// len(v.Vocab) entries; callers must check PackedReady. Safe for
// concurrent use with distinct counts.
func (v *Vectorizer) CountSlots(counts []int, trace []int, ns []int) int {
	var mult [MaxPackedN + 1]int
	total, maxN := 0, 0
	for _, n := range ns {
		if n <= 0 {
			continue
		}
		if w := len(trace) - n + 1; w > 0 {
			total += w
		}
		if n <= MaxPackedN {
			mult[n]++
			maxN = max(maxN, n)
		}
	}
	counts = counts[:len(v.pkeys)]
	t := &v.slots
	for i := range trace {
		lim := min(maxN, len(trace)-i)
		var key uint64
		for j := 0; j < lim; j++ {
			lab := uint64(trace[i+j])
			if lab > MaxPackedLabel {
				break // every longer gram from i holds this label too
			}
			key |= lab << (uint(j) * PackBits)
			if m := mult[j+1]; m != 0 {
				if s := t.find(key | uint64(j+1)<<lenShift); s >= 0 {
					counts[s] += m
				}
			}
		}
	}
	return total
}

// VectorSlotsInto is VectorPackedInto over slot counts: counts holds
// CountSlots' per-slot occurrences and total its summed return values.
// It performs the same float operations in the same order — count ÷
// total, × IDF, one write per occupied slot, then the L2 norm in index
// order — so its output is bit-identical to VectorPackedInto on a
// GramCounter holding the same grams. dst is reused as there.
func (v *Vectorizer) VectorSlotsInto(dst []float64, counts []int, total int) []float64 {
	out := v.output(dst)
	if total == 0 {
		return out
	}
	t := float64(total)
	for i, n := range counts[:len(v.pkeys)] {
		if n != 0 {
			tf := float64(n) / t
			out[i] = tf * v.IDF[i]
		}
	}
	if v.L2 {
		normalize(out)
	}
	return out
}
