package features

import "testing"

func TestExtractBatchMatchesSequential(t *testing.T) {
	cfgs := corpusCFGs(t, 2)
	e := NewExtractor(smallConfig())
	e.Fit(cfgs)
	salts := make([]int64, len(cfgs))
	for i := range salts {
		salts[i] = int64(100 + i)
	}
	batch, err := e.ExtractBatch(cfgs, salts)
	if err != nil {
		t.Fatalf("ExtractBatch: %v", err)
	}
	for i, c := range cfgs {
		seq, err := e.Extract(c, salts[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := range seq.Combined {
			if seq.Combined[j] != batch[i].Combined[j] {
				t.Fatalf("sample %d: batch differs from sequential", i)
			}
		}
	}
}

func TestExtractBatchErrors(t *testing.T) {
	cfgs := corpusCFGs(t, 1)
	e := NewExtractor(smallConfig())
	if _, err := e.ExtractBatch(cfgs, make([]int64, len(cfgs))); err != ErrNotFitted {
		t.Fatalf("unfitted err = %v", err)
	}
	e.Fit(cfgs)
	if _, err := e.ExtractBatch(cfgs, make([]int64, len(cfgs)+1)); err == nil {
		t.Fatal("length mismatch should error")
	}
}
