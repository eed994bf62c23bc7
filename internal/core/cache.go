package core

// Cache integration: an attached store.Cache is a verdict cache that
// memoizes final decisions keyed by (content hash, salt, model
// fingerprint), turning a repeat submission into a hash lookup that
// skips parsing, disassembly, extraction and scoring. Keys carry the
// model fingerprint, so a retrained or different model can never serve
// another model's results, and all cached decisions are bit-identical
// to the uncached path by construction — the cache stores outputs, it
// never changes how they are computed.

import (
	"crypto/sha256"
	"encoding/binary"

	"soteria/internal/disasm"
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

// cfgKey keys an already-disassembled CFG by a canonical structural
// digest. Extraction depends only on the graph's node count, entry
// node, edge set, salt, and the (fingerprinted) extractor config —
// never on block contents — so two CFGs with identical structure are
// interchangeable inputs and may share cache entries. The digest is
// domain-separated from byteKey's raw-content hashes.
func (p *Pipeline) cfgKey(c *disasm.CFG, salt int64) store.Key {
	h := sha256.New()
	var buf [16]byte
	copy(buf[:], "soteria/cfg/v1\x00\x00")
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:8], uint64(c.G.NumNodes()))
	binary.LittleEndian.PutUint64(buf[8:], uint64(c.EntryNode()))
	h.Write(buf[:])
	for _, e := range c.G.Edges() {
		binary.LittleEndian.PutUint64(buf[:8], uint64(e[0]))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e[1]))
		h.Write(buf[:])
	}
	var k store.Key
	h.Sum(k.Content[:0])
	k.Salt = salt
	k.Model = p.modelFP
	return k
}

func verdictOf(d *Decision) store.Verdict {
	return store.Verdict{Adversarial: d.Adversarial, RE: d.RE, Class: int32(d.Class)}
}

func decisionOf(v store.Verdict) *Decision {
	return &Decision{Adversarial: v.Adversarial, RE: v.RE, Class: malgen.Class(v.Class)}
}
