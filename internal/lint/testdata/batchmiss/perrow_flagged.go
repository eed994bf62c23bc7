package fixture

import (
	"soteria/internal/autoenc"
	"soteria/internal/cnn"
	"soteria/internal/nn"
	"soteria/internal/par"
)

// Per-sample scoring inside a par body runs one tiny forward per work
// item; the batched entry points exist precisely so these loops
// disappear into one large GEMM.
func perSampleVote(ens *cnn.Ensemble, dbl, lbl [][][]float64, out []int) {
	par.For(len(dbl), func(i int) {
		cls, err := ens.Vote(dbl[i], lbl[i]) // want "Ensemble.Vote inside a par.For body"
		if err == nil {
			out[i] = cls
		}
	})
}

func perSampleRE(det *autoenc.Detector, vecs [][]float64, res []float64) {
	par.For(len(vecs), func(i int) {
		res[i] = det.ReconstructionError(vecs[i]) // want "Detector.ReconstructionError inside a par.For body"
	})
}

func perChunkProbs(c *cnn.Classifier, rows []*nn.Matrix) {
	par.ForChunked(len(rows), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			_ = c.Probs(rows[i]) // want "Classifier.Probs inside a par.ForChunked body"
		}
	})
}

func perGrainSample(det *autoenc.Detector, vecs [][]float64, res []float64) {
	par.ForChunkedGrain(len(vecs), 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			res[i] = det.ReconstructionError(vecs[i]) // want "Detector.ReconstructionError inside a par.ForChunkedGrain body"
		}
	})
}

// Nested literals still execute once per work item.
func nestedLit(det *autoenc.Detector, vecs [][]float64, res []float64) {
	par.For(len(vecs), func(i int) {
		score := func() float64 {
			return det.ReconstructionError(vecs[i]) // want "Detector.ReconstructionError inside a par.For body"
		}
		res[i] = score()
	})
}
