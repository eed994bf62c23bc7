package cnn

import (
	"errors"
	"fmt"
	"sync"

	"soteria/internal/nn"
)

// Ensemble is the paper's voting classifier (Fig. 6: "the majority
// vote of the CNN classifiers output probabilities over the feature
// vectors"): one CNN consumes the ten density-based walk vectors of a
// sample, a second consumes the ten level-based vectors, and the
// sample's class maximizes the summed softmax probability over all 20
// per-walk predictions (soft voting, which lets a confident model
// outvote an uncertain one vector-for-vector).
type Ensemble struct {
	DBL *Classifier
	LBL *Classifier

	// scratch recycles per-call voting buffers (the walk-row gather
	// matrix and the per-class tallies); each concurrent voter borrows
	// its own set, so voting on a shared ensemble is race-free and, at
	// steady state, allocation-free.
	scratch sync.Pool
}

// voteScratch is one voter's working set.
type voteScratch struct {
	x     *nn.Matrix
	votes []int
	mass  []float64
}

func (e *Ensemble) getScratch() *voteScratch {
	if s, ok := e.scratch.Get().(*voteScratch); ok {
		return s
	}
	return new(voteScratch)
}

// ensureMat resizes *m to rows x cols, reusing the backing storage
// when possible. Contents are unspecified.
func ensureMat(m **nn.Matrix, rows, cols int) *nn.Matrix {
	if *m == nil || cap((*m).Data) < rows*cols {
		*m = nn.NewMatrix(rows, cols)
		return *m
	}
	(*m).Rows, (*m).Cols, (*m).Data = rows, cols, (*m).Data[:rows*cols]
	return *m
}

// ensureInts resizes an int slice, reusing capacity. Contents are
// unspecified.
func ensureInts(s *[]int, n int) []int {
	if cap(*s) < n {
		*s = make([]int, n)
	}
	*s = (*s)[:n]
	return *s
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

// ErrEmptyEnsemble is returned when an ensemble member is missing.
var ErrEmptyEnsemble = errors.New("cnn: ensemble requires both DBL and LBL classifiers")

// TrainEnsemble fits the two CNNs. dblX and lblX hold one row per walk
// (so a sample with ten walks contributes ten rows), with walkLabels
// giving each row's sample class.
func TrainEnsemble(dblX, lblX *nn.Matrix, walkLabels []int, cfg Config) (*Ensemble, error) {
	dbl, err := Train(dblX, walkLabels, cfg)
	if err != nil {
		return nil, err
	}
	lblCfg := cfg
	lblCfg.Seed = cfg.Seed + 1 // independent init for the second model
	lbl, err := Train(lblX, walkLabels, lblCfg)
	if err != nil {
		return nil, err
	}
	return &Ensemble{DBL: dbl, LBL: lbl}, nil
}

// Vote soft-votes over both models' per-walk class probabilities: the
// winning class maximizes total probability mass across all walk
// vectors, with hard-vote count as the tiebreak. Allocation-free at
// steady state and safe for concurrent use on a shared ensemble.
func (e *Ensemble) Vote(dblWalks, lblWalks [][]float64) (int, error) {
	if e.DBL == nil || e.LBL == nil {
		return 0, ErrEmptyEnsemble
	}
	classes := e.DBL.cfg.Classes
	s := e.getScratch()
	votes := ensureInts(&s.votes, classes)
	mass := ensureF64(&s.mass, classes)
	for c := 0; c < classes; c++ {
		votes[c], mass[c] = 0, 0
	}
	e.tallyRows(s, e.DBL, dblWalks, votes, mass)
	e.tallyRows(s, e.LBL, lblWalks, votes, mass)
	best := winner(votes, mass)
	e.scratch.Put(s)
	return best, nil
}

// tallyRows scores one model's walk rows and accumulates their
// soft-vote mass and hard-vote counts, reading the probabilities
// straight from the network's inference arena.
func (e *Ensemble) tallyRows(s *voteScratch, m *Classifier, walks [][]float64, votes []int, mass []float64) {
	if len(walks) == 0 {
		return
	}
	x := ensureMat(&s.x, len(walks), len(walks[0]))
	for i, r := range walks {
		if len(r) != x.Cols {
			panic(fmt.Sprintf("cnn: walk %d has %d features, want %d", i, len(r), x.Cols))
		}
		copy(x.Row(i), r)
	}
	m.net.PredictApply(x, func(y *nn.Matrix) {
		nn.SoftmaxInPlace(y)
		tallyProbs(y, 0, y.Rows, votes, mass)
	})
}

// tallyProbs accumulates rows [lo, hi) of a probability matrix into the
// per-class tallies. Mass accumulates in ascending class order within
// each row and ascending row order across rows, so any grouping of the
// same rows sums identically.
func tallyProbs(probs *nn.Matrix, lo, hi int, votes []int, mass []float64) {
	for i := lo; i < hi; i++ {
		row := probs.Row(i)
		best := 0
		for j, p := range row {
			mass[j] += p
			if p > row[best] {
				best = j
			}
		}
		votes[best]++
	}
}

// winner applies the soft-vote decision rule: maximum total probability
// mass, hard-vote count as tiebreak, lowest class index on a full tie.
func winner(votes []int, mass []float64) int {
	best := 0
	for c := 1; c < len(mass); c++ {
		if mass[c] > mass[best] || (mass[c] == mass[best] && votes[c] > votes[best]) {
			best = c
		}
	}
	return best
}

// VoteBatch soft-votes a whole batch of samples in one forward per
// labeling: dblX and lblX hold walksPerSample consecutive rows per
// sample (sample i owns rows [i*walksPerSample, (i+1)*walksPerSample)
// of both matrices), and entry i of the result is sample i's winning
// class. Decisions are bit-identical to per-sample Vote calls over the
// same rows: GEMM rows are independent, each sample's probabilities
// accumulate in the same order (its DBL rows ascending, then its LBL
// rows), and the tiebreak rule is shared. Panics on an incomplete
// ensemble or mismatched shapes — a served ensemble always has both
// members, so this is a programming error rather than an input error.
func (e *Ensemble) VoteBatch(dblX, lblX *nn.Matrix, walksPerSample int) []int {
	if walksPerSample <= 0 {
		panic(fmt.Sprintf("cnn: VoteBatch with %d walks per sample", walksPerSample))
	}
	return e.VoteBatchInto(make([]int, dblX.Rows/walksPerSample), dblX, lblX, walksPerSample)
}

// VoteBatchInto is VoteBatch with caller-provided storage (length
// rows/walksPerSample) — allocation-free at steady state and safe for
// concurrent use.
func (e *Ensemble) VoteBatchInto(dst []int, dblX, lblX *nn.Matrix, walksPerSample int) []int {
	if e.DBL == nil || e.LBL == nil {
		panic(ErrEmptyEnsemble)
	}
	wps := walksPerSample
	if wps <= 0 || lblX.Rows != dblX.Rows || dblX.Rows%wps != 0 {
		panic(fmt.Sprintf("cnn: VoteBatch over %dx%d / %dx%d rows with %d walks per sample",
			dblX.Rows, dblX.Cols, lblX.Rows, lblX.Cols, wps))
	}
	n := dblX.Rows / wps
	if len(dst) != n {
		panic(fmt.Sprintf("cnn: VoteBatchInto dst has len %d, want %d", len(dst), n))
	}
	classes := e.DBL.cfg.Classes
	s := e.getScratch()
	votes := ensureInts(&s.votes, n*classes)
	mass := ensureF64(&s.mass, n*classes)
	for i := range votes {
		votes[i], mass[i] = 0, 0
	}
	e.tallyBatch(e.DBL, dblX, wps, classes, votes, mass)
	e.tallyBatch(e.LBL, lblX, wps, classes, votes, mass)
	for i := range dst {
		dst[i] = winner(votes[i*classes:(i+1)*classes], mass[i*classes:(i+1)*classes])
	}
	e.scratch.Put(s)
	return dst
}

// tallyBatch runs one model over every sample's walk rows at once and
// scatters the per-row tallies into each sample's slice of the batch
// tallies.
func (e *Ensemble) tallyBatch(m *Classifier, x *nn.Matrix, wps, classes int, votes []int, mass []float64) {
	if x.Rows == 0 {
		return
	}
	m.net.PredictApply(x, func(y *nn.Matrix) {
		nn.SoftmaxInPlace(y)
		for smp := 0; smp*wps < y.Rows; smp++ {
			lo := smp * wps
			tallyProbs(y, lo, lo+wps,
				votes[smp*classes:(smp+1)*classes], mass[smp*classes:(smp+1)*classes])
		}
	})
}
