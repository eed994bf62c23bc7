package autoenc

import (
	"testing"

	"soteria/internal/nn"
)

// TestBatchedScoringMatchesPerSample pins the batched entry points
// bit-identical to the per-row one: one forward+RMSE pass
// over all rows must reproduce every per-row ReconstructionError
// exactly, across batch sizes.
func TestBatchedScoringMatchesPerSample(t *testing.T) {
	d, x := smallDetector(t)
	dim := x.Cols
	for _, rows := range []int{1, 2, 3, 5, 7, 14, 35} {
		sub := &nn.Matrix{Rows: rows, Cols: dim, Data: x.Data[:rows*dim]}
		res := d.ReconstructionErrors(sub)
		for r := 0; r < rows; r++ {
			if got := d.ReconstructionError(sub.Row(r)); got != res[r] {
				t.Fatalf("rows=%d row %d: batched RE %v != per-row %v", rows, r, res[r], got)
			}
		}
		into := make([]float64, rows)
		d.ReconstructionErrorsInto(into, sub)
		for r := range into {
			if into[r] != res[r] {
				t.Fatalf("ReconstructionErrorsInto[%d] = %v, want %v", r, into[r], res[r])
			}
		}
	}
}

// TestBatchedScoringZeroAllocSteadyState guards the batched entry
// point: once the inference arenas and dst are warm, scoring a
// multi-row batch allocates nothing.
func TestBatchedScoringZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	d, x := smallDetector(t)
	rows := 12
	sub := &nn.Matrix{Rows: rows, Cols: x.Cols, Data: x.Data[:rows*x.Cols]}
	res := make([]float64, rows)
	for i := 0; i < 3; i++ { // warm the inference arenas
		d.ReconstructionErrorsInto(res, sub)
	}
	if avg := testing.AllocsPerRun(100, func() { d.ReconstructionErrorsInto(res, sub) }); avg != 0 {
		t.Errorf("ReconstructionErrorsInto allocates %v objects per call, want 0", avg)
	}
}
