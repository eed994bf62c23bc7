package nn

// Workspace management for the two execution modes of a network.
//
// Training buffers: every layer owns persistent activation/gradient
// matrices (resized with ensure) that are reused across minibatches.
// Training therefore allocates only while buffers grow — a steady-state
// epoch performs no per-batch allocation — but it follows the usual
// single-trainer contract: at most one goroutine may call
// Forward(x, true)/Backward on a network at a time, and the matrices
// they return are owned by the layers and overwritten by the next pass.
//
// Inference scratch: Forward(x, false) must be safe for many
// goroutines sharing one trained model (the detector scores and the
// ensemble votes concurrently), so the inference path never touches
// the layers' training buffers. Each pass borrows an Arena — a bundle
// of scratch matrices handed out slot-by-slot — from a per-network
// free list, and only data copied out of the arena (see PredictInto)
// survives the pass.

// ensure resizes *m to rows x cols, reusing the backing slice when it
// is large enough and (re)allocating otherwise. Contents are
// unspecified. It is the sanctioned way for a layer to obtain its
// persistent training buffers.
func ensure(m **Matrix, rows, cols int) *Matrix {
	need := rows * cols
	if *m == nil || cap((*m).Data) < need {
		*m = &Matrix{Rows: rows, Cols: cols, Data: make([]float64, need)}
		return *m
	}
	(*m).Rows, (*m).Cols, (*m).Data = rows, cols, (*m).Data[:need]
	return *m
}

// ensureZero is ensure followed by zeroing, for buffers that accumulate
// (scatter-add gradients).
func ensureZero(m **Matrix, rows, cols int) *Matrix {
	out := ensure(m, rows, cols)
	out.Zero()
	return out
}

// ensureF64 resizes a float64 slice, reusing capacity. Contents are
// unspecified.
func ensureF64(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return *s
}

// Arena hands out scratch matrices for one inference pass. Slots are
// recycled: the arena keeps every matrix it has handed out and reuses
// the backing storage on the next pass, so a warmed arena allocates
// nothing. Matrices taken from an arena are only valid until the arena
// is reset or returned to its network.
type Arena struct {
	slots []*Matrix
	next  int
}

// take returns the next scratch matrix, resized to rows x cols.
// Contents are unspecified. Consecutive takes return distinct,
// non-aliasing matrices.
func (w *Arena) take(rows, cols int) *Matrix {
	if w.next == len(w.slots) {
		w.slots = append(w.slots, nil)
	}
	m := ensure(&w.slots[w.next], rows, cols)
	w.next++
	return m
}

// reset makes every slot available again without releasing storage.
func (w *Arena) reset() { w.next = 0 }
