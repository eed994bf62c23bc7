// Package registry is the serving tier's versioned model registry: it
// holds multiple loaded core.Pipeline instances keyed by an ID derived
// from the model fingerprint, serves analyze traffic through an
// atomically swappable active version, and shadow-scores a candidate
// version against a sample of live traffic so a cutover can be gated on
// observed agreement instead of hope.
//
// The hot-swap invariant is that every Decision comes entirely from
// exactly one version. Each version owns its own Batcher, and the
// registry's atomic active pointer only selects which batcher a new
// submission enters; requests already handed to an old version's
// batcher — including cache keys computed at submit time, which pin
// that version's fingerprint — complete on that version. Retired
// batchers stay open, so in-flight batches drain naturally and
// reactivating a previous version (rollback) is another pointer swap,
// not a rebuild.
//
// The fingerprint/cache interplay makes swaps cache-safe without any
// flush: store.Cache keys embed the model fingerprint, so each
// version writes and reads a disjoint keyspace of the shared cache,
// and an old version's entries simply age out of the LRU once traffic
// stops refreshing them.
package registry

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"soteria/internal/core"
	"soteria/internal/disasm"
	"soteria/internal/isa"
	"soteria/internal/obs"
	"soteria/internal/store"
)

// shadowAlpha is the decay of the shadow agreement and RE rolling
// means: fast enough that a few hundred mirrored requests dominate the
// statistic, slow enough that one disagreement cannot flip a gate.
const shadowAlpha = 0.05

// shadowQueue bounds the mirror queue feeding the shadow scorer.
// Mirroring is strictly best-effort: a full queue drops the sample
// (counted) rather than ever delaying the serving path.
const shadowQueue = 64

// ErrNoActive is returned by Submit before any version was activated.
var ErrNoActive = errors.New("registry: no active model version")

// ErrClosed is returned by mutating calls after Close.
var ErrClosed = errors.New("registry: closed")

// ErrUnknownVersion is wrapped by Activate/Shadow when id names no
// registered version.
var ErrUnknownVersion = errors.New("registry: unknown version")

// Config configures a Registry.
type Config struct {
	// Cache, when non-nil, is attached to every loaded version. Keys
	// embed each version's fingerprint, so versions share the cache
	// without ever sharing entries.
	Cache *store.Cache
	// Obs receives the registry's metrics and, on activation, each
	// version's pipeline/batcher metrics. Shadow versions stay
	// uninstrumented so a candidate's scoring never pollutes the live
	// drift metrics. Nil disables all instrumentation.
	Obs *obs.Registry
}

// version is one loaded model: the pipeline, its ID, and the Batcher
// it serves through once activated.
type version struct {
	id   string
	pipe *core.Pipeline
	// bat is created on first activation (never for shadow-only
	// versions) and stays open after the version is swapped out, so
	// queued requests drain on the version that keyed them.
	bat *core.Batcher
}

// shadowState is one shadow-scoring session: the candidate version,
// the sampling ratio, and the session's rolling statistics. Replaced
// wholesale when shadowing is (re)configured, so a new session never
// inherits a previous candidate's statistics.
type shadowState struct {
	ver   *version
	every uint64
	n     atomic.Uint64 // submissions seen, for deterministic sampling
	cmp   atomic.Uint64 // comparisons completed
	agree *obs.EWMA     // rolling verdict agreement in [0, 1]
	re    *obs.EWMA     // rolling shadow reconstruction error
}

// shadowJob carries one mirrored request to the shadow scorer: the
// submission's raw bytes, parsed only by the scorer, off the serving
// path.
type shadowJob struct {
	st     *shadowState
	raw    []byte
	salt   int64
	active *core.Decision
}

// registryObs is the registry's metric set.
type registryObs struct {
	activeVersion *obs.Info    // registry.active_version: the live model ID
	swaps         *obs.Counter // registry.swaps: activations that changed the pointer
	versions      *obs.Gauge   // registry.versions: loaded version count
	agreement     *obs.Gauge   // registry.shadow_agreement: rolling verdict agreement
	driftSigma    *obs.Gauge   // registry.shadow_drift_sigma: shadow RE drift in sigmas
	compared      *obs.Counter // registry.shadow_compared: mirrored requests scored
	dropped       *obs.Counter // registry.shadow_dropped: mirrors lost to a full queue
	errors        *obs.Counter // registry.shadow_errors: shadow scoring failures
}

// Registry holds the loaded model versions and routes analyze traffic
// to the active one. Safe for concurrent use.
type Registry struct {
	cfg Config
	met registryObs

	// mu guards the version table and all state transitions (load,
	// activate, shadow, close). The serving path never takes it: Submit
	// reads the active and shadow pointers atomically.
	mu       sync.Mutex
	versions map[string]*version
	order    []string // load order, for stable List output
	closed   bool

	active atomic.Pointer[version]
	shadow atomic.Pointer[shadowState]

	jobs chan shadowJob
	// quiesce is the Activate/scorer handshake: receiving a reply
	// channel and closing it proves the scorer is between jobs, so a
	// pipeline about to be instrumented is not mid-Analyze.
	quiesce chan chan struct{}
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
}

// New returns an empty registry and starts its shadow scorer. Close it
// to release the scorer and every version's batcher.
func New(cfg Config) *Registry {
	r := &Registry{
		cfg:      cfg,
		versions: make(map[string]*version),
		jobs:     make(chan shadowJob, shadowQueue),
		quiesce:  make(chan chan struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if o := cfg.Obs; o != nil {
		r.met = registryObs{
			activeVersion: o.Info("registry.active_version"),
			swaps:         o.Counter("registry.swaps"),
			versions:      o.Gauge("registry.versions"),
			agreement:     o.Gauge("registry.shadow_agreement"),
			driftSigma:    o.Gauge("registry.shadow_drift_sigma"),
			compared:      o.Counter("registry.shadow_compared"),
			dropped:       o.Counter("registry.shadow_dropped"),
			errors:        o.Counter("registry.shadow_errors"),
		}
	}
	go r.scoreShadows()
	return r
}

// VersionID derives the registry ID of a pipeline: the first 16 hex
// digits of its model fingerprint.
func VersionID(p *core.Pipeline) (string, error) {
	fp, err := p.Fingerprint()
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(fp[:8]), nil
}

// Load registers a trained pipeline and returns its version ID.
// Loading is idempotent: a pipeline whose fingerprint is already
// registered returns the existing ID (the registered instance keeps
// serving). The shared cache, when configured, is attached here —
// before the version can see traffic — because AttachCache is not
// swap-safe once Analyze calls are in flight.
func (r *Registry) Load(p *core.Pipeline) (string, error) {
	id, err := VersionID(p)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return "", ErrClosed
	}
	if _, ok := r.versions[id]; ok {
		return id, nil
	}
	if r.cfg.Cache != nil {
		if err := p.AttachCache(r.cfg.Cache); err != nil {
			return "", err
		}
	}
	r.versions[id] = &version{id: id, pipe: p}
	r.order = append(r.order, id)
	r.met.versions.Set(float64(len(r.versions)))
	return id, nil
}

// LoadSaved reads a Save-serialized model and registers it.
func (r *Registry) LoadSaved(rd io.Reader) (string, error) {
	p, err := core.Load(rd)
	if err != nil {
		return "", err
	}
	return r.Load(p)
}

// Activate makes version id the one serving new submissions. The swap
// is a single atomic pointer store: submissions that already chose the
// previous version's batcher complete there, and everything after the
// swap enters the new version's. First activation instruments the
// pipeline and starts its batcher; reactivating a version that was
// swapped out reuses its still-open batcher. Activating the version
// being shadowed ends the shadow session (it would be comparing the
// active model to itself).
func (r *Registry) Activate(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	v, ok := r.versions[id]
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownVersion, id)
	}
	if s := r.shadow.Load(); s != nil && s.ver == v {
		r.shadow.Store(nil)
	}
	if v.bat == nil {
		// Instrument mutates the pipeline, and the shadow scorer may be
		// mid-Analyze on it (v is typically the candidate being cut
		// over). The session is cleared above, so after one handshake
		// the scorer can never touch v again: in-flight comparison
		// finished, and queued jobs fail the stale-session check before
		// reaching the pipeline.
		r.quiesceScorer()
		v.pipe.Instrument(r.cfg.Obs)
		v.bat = core.NewBatcher(v.pipe)
	}
	prev := r.active.Swap(v)
	if prev == v {
		return nil
	}
	if prev != nil {
		r.met.swaps.Inc()
	}
	r.met.activeVersion.Set(v.id)
	return nil
}

// quiesceScorer blocks until the shadow scorer is idle between jobs
// (or already stopped). Callers must hold r.mu, which keeps a new
// shadow session from starting while the handshake is in flight.
func (r *Registry) quiesceScorer() {
	q := make(chan struct{})
	select {
	case r.quiesce <- q:
		<-q
	case <-r.done:
	}
}

// Shadow starts shadow-scoring version id: every every-th submission's
// input is mirrored to it after the active version answers, and the
// candidate's verdict agreement and RE drift accumulate in the shadow
// stats. every <= 0 stops shadowing. The active version cannot be its
// own shadow. Restarting a session (same or different candidate)
// resets the statistics.
func (r *Registry) Shadow(id string, every int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if every <= 0 {
		r.shadow.Store(nil)
		return nil
	}
	v, ok := r.versions[id]
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownVersion, id)
	}
	if r.active.Load() == v {
		return fmt.Errorf("registry: version %q is active; shadowing it would compare the model to itself", id)
	}
	r.shadow.Store(&shadowState{
		ver:   v,
		every: uint64(every),
		agree: obs.NewEWMA(shadowAlpha),
		re:    obs.NewEWMA(shadowAlpha),
	})
	return nil
}

// Active returns the serving version's ID ("" before any activation).
func (r *Registry) Active() string {
	if v := r.active.Load(); v != nil {
		return v.id
	}
	return ""
}

// Submit analyzes the raw SOTB bytes of one binary through the active
// version's batcher and blocks until its decision is ready or ctx is
// done (see core.Batcher.Submit: a cache hit costs one content hash,
// and bytes that do not parse or disassemble fail with an error
// wrapping core.ErrBadBinary). The version is chosen exactly once, by
// one atomic load: whichever version answers computed the cache key,
// ran the scoring, and owns the decision — a concurrent Activate
// affects only later submissions. Successful decisions are sampled
// into the shadow mirror, which never blocks or fails the serving
// path; a mirrored raw is read by the shadow scorer after Submit
// returns, so callers must not modify raw afterwards.
func (r *Registry) Submit(ctx context.Context, raw []byte, salt int64) (*core.Decision, error) {
	v := r.active.Load()
	if v == nil {
		return nil, ErrNoActive
	}
	dec, err := v.bat.Submit(ctx, raw, salt)
	if err != nil {
		return nil, err
	}
	r.mirror(raw, salt, dec)
	return dec, nil
}

// mirror enqueues a sampled request for shadow scoring. Sampling is a
// deterministic modulus of the session's submission counter — no
// clocks, no randomness — so a given traffic sequence always mirrors
// the same requests. A full queue drops the sample and counts it.
func (r *Registry) mirror(raw []byte, salt int64, dec *core.Decision) {
	s := r.shadow.Load()
	if s == nil {
		return
	}
	if (s.n.Add(1)-1)%s.every != 0 {
		return
	}
	select {
	case r.jobs <- shadowJob{st: s, raw: raw, salt: salt, active: dec}:
	default:
		r.met.dropped.Inc()
	}
}

// scoreShadows is the registry's single shadow scorer: it parses each
// mirrored request's bytes, runs the CFG through the candidate pipeline
// directly (no batcher and no cache — the candidate is not serving) and
// folds the comparison into the session statistics. One goroutine, so a
// slow candidate backs up the bounded queue and sheds mirrors instead
// of growing unbounded concurrent scoring.
func (r *Registry) scoreShadows() {
	defer close(r.done)
	for {
		select {
		case j := <-r.jobs:
			r.compare(j)
		case q := <-r.quiesce:
			close(q)
		case <-r.stop:
			return
		}
	}
}

// compare scores one mirrored request on the candidate and updates the
// session stats and gauges.
func (r *Registry) compare(j shadowJob) {
	// A job from a replaced session is dropped unscored: its candidate
	// may have been activated (and instrumented) since it was queued,
	// and its statistics no longer feed anything.
	if r.shadow.Load() != j.st {
		r.met.dropped.Inc()
		return
	}
	d, err := analyzeShadow(j.st.ver.pipe, j.raw, j.salt)
	if err != nil {
		r.met.errors.Inc()
		return
	}
	agree := 0.0
	if d.Adversarial == j.active.Adversarial && d.Class == j.active.Class {
		agree = 1.0
	}
	j.st.agree.Observe(agree)
	j.st.re.Observe(d.RE)
	j.st.cmp.Add(1)
	r.met.agreement.Set(j.st.agree.Value())
	r.met.driftSigma.Set(driftSigma(j.st))
	r.met.compared.Inc()
}

// analyzeShadow parses and disassembles a mirrored submission and
// analyzes its CFG on the candidate.
func analyzeShadow(p *core.Pipeline, raw []byte, salt int64) (*core.Decision, error) {
	bin, err := isa.DecodeBinary(raw)
	if err != nil {
		return nil, err
	}
	cfg, err := disasm.Disassemble(bin)
	if err != nil {
		return nil, err
	}
	return p.Analyze(cfg, salt)
}

// driftSigma expresses the shadow RE rolling mean in units of the
// candidate's own training calibration — the registry analogue of the
// detector's re_drift_sigma: how far live traffic sits from where the
// candidate expects clean traffic to sit.
func driftSigma(s *shadowState) float64 {
	mu, sigma := s.ver.pipe.Detector.Calibration()
	if sigma <= 0 {
		return 0
	}
	return (s.re.Value() - mu) / sigma
}

// ShadowStats is a point-in-time snapshot of the current shadow
// session. Cutover gates read it (or the equivalent registry.shadow_*
// metrics): activate when Compared is large enough and Agreement and
// DriftSigma sit where the operator demands.
type ShadowStats struct {
	// ID is the candidate version being shadowed.
	ID string `json:"id"`
	// Every is the sampling ratio: one mirror per Every submissions.
	Every int `json:"every"`
	// Compared counts mirrored requests scored so far this session.
	Compared uint64 `json:"compared"`
	// Agreement is the rolling fraction of mirrored requests where the
	// candidate's verdict (adversarial flag and class) matched the
	// active model's.
	Agreement float64 `json:"agreement"`
	// REMean is the rolling mean reconstruction error the candidate
	// assigns to live traffic.
	REMean float64 `json:"re_mean"`
	// DriftSigma is REMean in units of the candidate's calibration.
	DriftSigma float64 `json:"drift_sigma"`
}

// ShadowStats returns the current session's statistics; ok is false
// when nothing is being shadowed.
func (r *Registry) ShadowStats() (stats ShadowStats, ok bool) {
	s := r.shadow.Load()
	if s == nil {
		return ShadowStats{}, false
	}
	return ShadowStats{
		ID:         s.ver.id,
		Every:      int(s.every),
		Compared:   s.cmp.Load(),
		Agreement:  s.agree.Value(),
		REMean:     s.re.Value(),
		DriftSigma: driftSigma(s),
	}, true
}

// ModelInfo describes one registered version.
type ModelInfo struct {
	ID string `json:"id"`
	// Active marks the version serving new submissions.
	Active bool `json:"active"`
	// Shadow marks the version being shadow-scored.
	Shadow bool `json:"shadow"`
	// Ready marks a version whose batcher exists (it has been active at
	// least once, so reactivating it is instant).
	Ready bool `json:"ready"`
}

// List returns every registered version in load order.
func (r *Registry) List() []ModelInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	active := r.active.Load()
	shadow := r.shadow.Load()
	out := make([]ModelInfo, 0, len(r.order))
	for _, id := range r.order {
		v := r.versions[id]
		out = append(out, ModelInfo{
			ID:     id,
			Active: v == active,
			Shadow: shadow != nil && shadow.ver == v,
			Ready:  v.bat != nil,
		})
	}
	return out
}

// Close stops the shadow scorer and closes every version's batcher
// (each drains its queued requests first). Submissions racing Close
// complete or return core.ErrBatcherClosed; later ones always error.
// Idempotent.
func (r *Registry) Close() {
	r.once.Do(func() {
		r.mu.Lock()
		r.closed = true
		vs := make([]*version, 0, len(r.versions))
		for _, v := range r.versions {
			vs = append(vs, v)
		}
		r.mu.Unlock()
		for _, v := range vs {
			if v.bat != nil {
				v.bat.Close()
			}
		}
		close(r.stop)
	})
	<-r.done
}
