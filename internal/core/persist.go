package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"

	"soteria/internal/autoenc"
	"soteria/internal/cnn"
	"soteria/internal/features"
	"soteria/internal/ngram"
)

// persisted is the on-disk form of a trained pipeline: extractor
// vocabularies, detector state, and classifier weights, with enough
// configuration to rebuild identical networks.
type persisted struct {
	Version  int             `json:"version"`
	Options  Options         `json:"options"`
	Features features.Config `json:"features"`

	DBLVocab vocabState `json:"dblVocab"`
	LBLVocab vocabState `json:"lblVocab"`

	DetectorConfig autoenc.Config `json:"detectorConfig"`
	DetectorState  autoenc.State  `json:"detectorState"`

	CNNConfig  cnn.Config `json:"cnnConfig"`
	DBLWeights []float64  `json:"dblWeights"`
	LBLWeights []float64  `json:"lblWeights"`
}

type vocabState struct {
	Vocab []string  `json:"vocab"`
	IDF   []float64 `json:"idf"`
	Dim   int       `json:"dim"`
	L2    bool      `json:"l2"`
}

func vocabOf(v *ngram.Vectorizer) vocabState {
	return vocabState{Vocab: v.Vocab, IDF: v.IDF, Dim: v.Dim, L2: v.L2}
}

func (vs vocabState) restore() *ngram.Vectorizer {
	return ngram.Restore(vs.Vocab, vs.IDF, vs.Dim, vs.L2)
}

const persistVersion = 1

// Save serializes the trained pipeline as JSON.
func (p *Pipeline) Save(w io.Writer) error {
	dblV, lblV := p.Extractor.Vectorizers()
	detCfg := p.Detector.Config()
	out := persisted{
		Version:        persistVersion,
		Options:        p.opts,
		Features:       p.Extractor.Config(),
		DBLVocab:       vocabOf(dblV),
		LBLVocab:       vocabOf(lblV),
		DetectorConfig: detCfg,
		DetectorState:  p.Detector.State(),
		CNNConfig:      p.Ensemble.DBL.Config(),
		DBLWeights:     p.Ensemble.DBL.Network().SaveWeights(),
		LBLWeights:     p.Ensemble.LBL.Network().SaveWeights(),
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Fingerprint hashes the pipeline's full serialized state — the exact
// bytes Save would write, which cover options, vocabularies, detector
// state and classifier weights. Two pipelines share a fingerprint iff
// they are the same model, so it is the model-identity component of
// cache keys: any retraining, weight change or option change yields a
// different fingerprint and thereby invalidates every prior cache
// entry without touching the cache itself.
//
// The hash is memoized: Train and Load stamp it once, so steady-state
// calls (registry lookups, cache attachment, swap-time rekeying) are a
// copy of 32 bytes instead of a full model serialization. Callers that
// mutate a component through the exported fields (replacing the
// Ensemble, Detector.SetAlpha, ...) must call InvalidateFingerprint to
// force a recompute — the pipeline cannot observe those writes.
func (p *Pipeline) Fingerprint() ([32]byte, error) {
	if p.fpSet {
		return p.fp, nil
	}
	h := sha256.New()
	if err := p.Save(h); err != nil {
		return [32]byte{}, fmt.Errorf("core: fingerprint: %w", err)
	}
	h.Sum(p.fp[:0])
	p.fpSet = true
	return p.fp, nil
}

// InvalidateFingerprint drops the memoized fingerprint so the next
// Fingerprint call re-serializes the model. Call after mutating any
// persisted component through the exported fields. Not safe to call
// concurrently with Fingerprint — mutate, invalidate, then resume
// serving.
func (p *Pipeline) InvalidateFingerprint() { p.fpSet = false }

// check rejects a model whose parts cannot serve together, which
// would otherwise load and then panic on its first analysis: each
// vocabulary needs one IDF weight per entry and a vector of the
// features' topK dimensions with room for every entry, and the
// detector must read two such vectors and each classifier one.
func (in *persisted) check(topK int) error {
	for _, v := range []struct {
		name string
		vs   vocabState
	}{{"DBL", in.DBLVocab}, {"LBL", in.LBLVocab}} {
		switch vs := v.vs; {
		case len(vs.IDF) != len(vs.Vocab):
			return fmt.Errorf("core: %s vocabulary has %d entries but %d IDF weights", v.name, len(vs.Vocab), len(vs.IDF))
		case len(vs.Vocab) > vs.Dim:
			return fmt.Errorf("core: %s vocabulary has %d entries, more than its dim %d", v.name, len(vs.Vocab), vs.Dim)
		case vs.Dim != topK:
			return fmt.Errorf("core: %s vocabulary dim %d, want the features' topK %d", v.name, vs.Dim, topK)
		}
	}
	if d := in.DetectorConfig.InputDim; d != 2*topK {
		return fmt.Errorf("core: detector input dim %d, want 2×topK = %d", d, 2*topK)
	}
	if d := in.CNNConfig.InputDim; d != topK {
		return fmt.Errorf("core: classifier input dim %d, want topK = %d", d, topK)
	}
	return nil
}

// Load rebuilds a trained pipeline from Save output. A model whose
// vocabularies, detector and classifiers disagree on dimensions is
// rejected, not loaded, and so is one whose options set
// PerWalkDetector (ErrPerWalkDetector).
func Load(r io.Reader) (*Pipeline, error) {
	var in persisted
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	if in.Version != persistVersion {
		return nil, fmt.Errorf("core: unsupported model version %d", in.Version)
	}
	if in.Options.PerWalkDetector {
		return nil, ErrPerWalkDetector
	}
	ext := features.NewExtractor(in.Features)
	if err := in.check(ext.WalkDim()); err != nil {
		return nil, err
	}
	ext.FitVectorizers(in.DBLVocab.restore(), in.LBLVocab.restore())

	det, err := autoenc.Restore(in.DetectorConfig, in.DetectorState)
	if err != nil {
		return nil, fmt.Errorf("core: restore detector: %w", err)
	}
	dbl, err := cnn.Restore(in.CNNConfig, in.DBLWeights)
	if err != nil {
		return nil, fmt.Errorf("core: restore DBL classifier: %w", err)
	}
	lblCfg := in.CNNConfig
	lblCfg.Seed = in.CNNConfig.Seed + 1
	lbl, err := cnn.Restore(lblCfg, in.LBLWeights)
	if err != nil {
		return nil, fmt.Errorf("core: restore LBL classifier: %w", err)
	}
	p := &Pipeline{
		Extractor: ext,
		Detector:  det,
		Ensemble:  &cnn.Ensemble{DBL: dbl, LBL: lbl},
		opts:      in.Options,
	}
	// Stamp the fingerprint memo before the pipeline serves traffic (see
	// Train); a freshly loaded model round-trips to the same bytes, so
	// this equals the saved model's fingerprint.
	if _, err := p.Fingerprint(); err != nil {
		return nil, err
	}
	return p, nil
}
