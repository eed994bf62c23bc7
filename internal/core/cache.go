package core

// Cache integration: an attached store.Cache is a verdict cache that
// memoizes final decisions keyed by (content hash, salt, model
// fingerprint). Every entry path — AnalyzeBinary, AnalyzeBinaryBatch
// and Batcher.Submit — keys a submission by the sha256 of its raw
// bytes (byteKey) before parsing them, so a repeat is a hash lookup
// that skips parsing, disassembly, extraction and scoring, and all
// three paths share one keyspace. Keys carry the model fingerprint, so
// a retrained or different model can never serve another model's
// results, and all cached decisions are bit-identical to the uncached
// path by construction — the cache stores outputs, it never changes
// how they are computed.

import (
	"crypto/sha256"

	"soteria/internal/malgen"
	"soteria/internal/store"
)

// AttachCache attaches (nil detaches) a verdict cache to the pipeline,
// pinning the current model fingerprint into every key it writes. Not
// safe to call concurrently with Analyze calls — attach before
// serving. Attaching fails only if the model cannot be serialized.
func (p *Pipeline) AttachCache(c *store.Cache) error {
	if c == nil {
		p.cache = nil
		return nil
	}
	fp, err := p.Fingerprint()
	if err != nil {
		return err
	}
	p.modelFP = fp
	p.cache = c
	return nil
}

// byteKey keys a raw binary submission. sha256.Sum256 keeps the
// verdict-hit path allocation-free.
func (p *Pipeline) byteKey(raw []byte, salt int64) store.Key {
	return store.Key{Content: sha256.Sum256(raw), Salt: salt, Model: p.modelFP}
}

func verdictOf(d *Decision) store.Verdict {
	return store.Verdict{Adversarial: d.Adversarial, RE: d.RE, Class: int32(d.Class)}
}

func decisionOf(v store.Verdict) *Decision {
	return &Decision{Adversarial: v.Adversarial, RE: v.RE, Class: malgen.Class(v.Class)}
}
