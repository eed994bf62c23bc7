// Package soteria is the public API of this reproduction of "Soteria:
// Detecting Adversarial Examples in Control Flow Graph-based Malware
// Classifiers" (Alasmary et al., ICDCS 2020).
//
// Soteria defends CFG-based IoT malware classifiers against adversarial
// examples. A binary is disassembled into its control flow graph; nodes
// are labeled by density (DBL) and by level (LBL); random walks over the
// labeled graph are summarized as TF-IDF-weighted n-grams; an
// autoencoder trained only on clean samples flags adversarial inputs by
// reconstruction error; and a majority-voting pair of 1-D CNNs
// classifies clean samples into Benign, Gafgyt, Mirai, or Tsunami.
//
// Quick start:
//
//	gen := soteria.NewGenerator(soteria.GeneratorConfig{Seed: 1})
//	corpus, _ := gen.Corpus(map[soteria.Class]int{
//		soteria.Benign: 100, soteria.Gafgyt: 100,
//		soteria.Mirai: 100, soteria.Tsunami: 50,
//	})
//	sys, _ := soteria.Train(corpus, soteria.DefaultOptions())
//	dec, _ := sys.Analyze(corpus[0].CFG, 0)
//	fmt.Println(dec.Adversarial, dec.Class)
//
// The real system consumes binaries: Analyze accepts any CFG recovered
// by the bundled disassembler, and AnalyzeBinary accepts raw SOTB
// container bytes. See DESIGN.md for what stands in for the paper's
// proprietary dataset and toolchain, and EXPERIMENTS.md for the
// reproduced tables and figures.
package soteria

import (
	"io"

	"soteria/internal/core"
	"soteria/internal/disasm"
	"soteria/internal/gea"
	"soteria/internal/isa"
	"soteria/internal/malgen"
	"soteria/internal/obs"
	"soteria/internal/registry"
	"soteria/internal/store"
)

// Class identifies a sample class (Benign or a malware family).
type Class = malgen.Class

// Sample classes.
const (
	Benign  = malgen.Benign
	Gafgyt  = malgen.Gafgyt
	Mirai   = malgen.Mirai
	Tsunami = malgen.Tsunami
)

// Classes lists all classes in canonical order.
var Classes = malgen.Classes

// NumClasses is the number of classes.
const NumClasses = malgen.NumClasses

// Sample is one corpus entry: program, binary, and recovered CFG.
type Sample = malgen.Sample

// CFG is a control flow graph recovered by the disassembler.
type CFG = disasm.CFG

// Binary is a parsed SOTB executable.
type Binary = isa.Binary

// Program is the structured form of a SOT-32 executable.
type Program = isa.Program

// GeneratorConfig parameterizes the synthetic corpus generator.
type GeneratorConfig = malgen.Config

// Generator produces synthetic IoT samples with family-specific CFG
// structure (the stand-in for the paper's CyberIOC + GitHub corpus).
type Generator = malgen.Generator

// NewGenerator returns a corpus generator.
func NewGenerator(cfg GeneratorConfig) *Generator { return malgen.NewGenerator(cfg) }

// Options configures system training.
type Options = core.Options

// DefaultOptions returns CI-scale training options (minutes on a
// laptop).
func DefaultOptions() Options { return core.DefaultOptions() }

// PaperOptions returns the paper's full-scale parameters (1000
// features, 46-filter CNNs, 100 epochs).
func PaperOptions() Options { return core.PaperOptions() }

// Decision is the system's verdict on one sample.
type Decision = core.Decision

// System is a trained Soteria instance: feature extractor, adversarial
// example detector, and majority-voting classifier.
type System struct {
	pipeline *core.Pipeline
}

// Train fits Soteria on labeled clean samples. Neither model ever sees
// adversarial data.
func Train(samples []*Sample, opts Options) (*System, error) {
	p, err := core.Train(samples, opts)
	if err != nil {
		return nil, err
	}
	return &System{pipeline: p}, nil
}

// Analyze runs detection and classification on a CFG. salt
// individualizes walk randomness; use a stable per-sample value for
// reproducible results.
func (s *System) Analyze(c *CFG, salt int64) (*Decision, error) {
	return s.pipeline.Analyze(c, salt)
}

// AnalyzeBinary disassembles raw SOTB bytes and analyzes the result.
func (s *System) AnalyzeBinary(raw []byte, salt int64) (*Decision, error) {
	return s.pipeline.AnalyzeBinary(raw, salt)
}

// AnalyzeBatch analyzes many CFGs through the batched scoring pipeline:
// extraction overlaps cross-sample batched forwards, producing results
// bit-identical to per-sample Analyze calls with the same salts.
func (s *System) AnalyzeBatch(cfgs []*CFG, salts []int64) ([]*Decision, error) {
	return s.pipeline.AnalyzeBatch(cfgs, salts)
}

// AnalyzeBinaryBatch disassembles and analyzes many raw SOTB binaries
// in one batched pass.
func (s *System) AnalyzeBinaryBatch(bins [][]byte, salts []int64) ([]*Decision, error) {
	return s.pipeline.AnalyzeBinaryBatch(bins, salts)
}

// Batcher is the serving front door: concurrent callers Submit raw
// SOTB bytes, and the batcher scores their misses in shared batched
// forwards; see NewBatcher.
type Batcher = core.Batcher

// ErrBatcherClosed is returned by Batcher.Submit after Close.
var ErrBatcherClosed = core.ErrBatcherClosed

// ErrBadBinary is wrapped by the error of a Batcher or ModelRegistry
// submission whose bytes do not parse as SOTB or whose entry point does
// not disassemble — the client's fault, where any other failure is the
// server's.
var ErrBadBinary = core.ErrBadBinary

// NewBatcher starts a micro-batching front door over the trained
// system. Concurrent callers Submit the raw bytes of one binary each
// and receive decisions bit-identical to lone AnalyzeBinary calls with
// the same salt. With a cache attached, a repeat is answered from its
// content hash before the bytes are parsed. A miss is parsed,
// disassembled and extracted on its caller's goroutine, and the
// batcher scores whoever is waiting when it frees up in one shared
// batched forward, so one large binary never holds up the others'
// extraction. Close it to release the collector goroutine.
func (s *System) NewBatcher() *Batcher {
	return core.NewBatcher(s.pipeline)
}

// Pipeline exposes the underlying components (extractor, detector,
// ensemble) for advanced use such as threshold sweeps or classifier
// replacement.
func (s *System) Pipeline() *core.Pipeline { return s.pipeline }

// Cache is a crash-safe, content-addressed verdict cache: it memoizes
// verdicts keyed by (sha256 of the raw binary, salt, model
// fingerprint), turning a repeat submission of identical bytes into a
// hash lookup that skips parsing, disassembly, extraction and scoring
// on every entry path (AnalyzeBinary, AnalyzeBinaryBatch, Batcher and
// ModelRegistry submissions). See OpenCache and System.AttachCache.
type Cache = store.Cache

// CacheConfig configures OpenCache: an on-disk directory (empty for
// memory-only), a byte budget, and an optional metric registry for
// hit/miss/evict counters.
type CacheConfig = store.Config

// DefaultCacheMaxBytes is the cache byte budget used when
// CacheConfig.MaxBytes is unset.
const DefaultCacheMaxBytes = store.DefaultMaxBytes

// OpenCache opens (or creates) a result cache. With a Dir, entries
// persist across restarts via an append-only record log (a corrupt
// tail from a crash is truncated away on open). Close the cache when
// done.
func OpenCache(cfg CacheConfig) (*Cache, error) { return store.Open(cfg) }

// AttachCache attaches (nil detaches) a result cache to the system:
// AnalyzeBinary, AnalyzeBinaryBatch and Batcher submissions consult it
// before doing any work and fill it as they compute. Keys include the
// model's fingerprint, so a cache may be shared between models (or
// survive a retrain) without ever serving stale verdicts, and cached
// decisions are bit-identical to uncached ones. Attach before serving
// traffic, not concurrently with Analyze calls.
func (s *System) AttachCache(c *Cache) error { return s.pipeline.AttachCache(c) }

// ModelRegistry is a versioned model registry for zero-downtime model
// rollout: it holds multiple loaded systems keyed by fingerprint-derived
// version IDs, serves analyses through an atomically swappable active
// version (each decision comes entirely from one version, even across a
// swap), and shadow-scores a candidate on sampled live traffic so
// cutover can be gated on observed agreement and RE drift. Its
// AdminHandler exposes the /models API the built-in server mounts.
type ModelRegistry = registry.Registry

// ModelRegistryConfig configures NewModelRegistry: an optional shared
// result cache (versions never share entries — keys embed each
// version's fingerprint) and an optional metric registry.
type ModelRegistryConfig = registry.Config

// ModelInfo describes one registered model version.
type ModelInfo = registry.ModelInfo

// ShadowStats is a snapshot of the running shadow-scoring session.
type ShadowStats = registry.ShadowStats

// ErrNoActiveModel is returned by ModelRegistry submissions before any
// version has been activated.
var ErrNoActiveModel = registry.ErrNoActive

// NewModelRegistry returns an empty model registry. Close it to stop
// the shadow scorer and every version's batcher.
func NewModelRegistry(cfg ModelRegistryConfig) *ModelRegistry { return registry.New(cfg) }

// AddModel registers a trained system in the registry and returns its
// version ID (idempotent per fingerprint). Activate the ID to serve
// it, or shadow it against the active version first.
func AddModel(r *ModelRegistry, s *System) (string, error) { return r.Load(s.pipeline) }

// Registry is a named metric namespace for the serving path's
// observability layer; its Handler serves an expvar-style JSON snapshot
// (mount as /metrics, or use the built-in `soteria -serve`).
type Registry = obs.Registry

// NewRegistry returns an empty metric registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Instrument registers the system's serving metrics (pipeline stage
// latencies, batcher queue waits and batch sizes, detector RE drift)
// in r and starts observing. A nil registry is a no-op. Instrument
// before serving traffic and before NewBatcher; observations are
// write-only, so decisions are bit-identical with instrumentation on or
// off, and the hot paths stay allocation-free. Training-time metrics
// are wired separately through Options.Obs.
func (s *System) Instrument(r *Registry) { s.pipeline.Instrument(r) }

// Save serializes the trained system (vocabularies, detector state,
// classifier weights) as JSON.
func (s *System) Save(w io.Writer) error { return s.pipeline.Save(w) }

// Load rebuilds a trained system from Save output.
func Load(r io.Reader) (*System, error) {
	p, err := core.Load(r)
	if err != nil {
		return nil, err
	}
	return &System{pipeline: p}, nil
}

// Disassemble recovers the CFG of a parsed binary.
func Disassemble(bin *Binary) (*CFG, error) { return disasm.Disassemble(bin) }

// ParseBinary decodes SOTB container bytes.
func ParseBinary(raw []byte) (*Binary, error) { return isa.DecodeBinary(raw) }

// GEAMerge applies the Graph Embedding and Augmentation attack: it
// grafts target into original through shared entry/exit blocks,
// returning the adversarial binary and its CFG. The result preserves
// the original program's runtime behaviour.
func GEAMerge(original, target *Program) (*Binary, *CFG, error) {
	return gea.MergeToCFG(original, target)
}
