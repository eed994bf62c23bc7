package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"soteria/internal/features"
	"soteria/internal/obs"
	"soteria/internal/store"
)

// ErrBatcherClosed is returned by Submit once Close has begun.
var ErrBatcherClosed = errors.New("core: batcher closed")

// request is one caller's scoring work as the collector sees it: the
// caller's extracted rows, a completion signal, and the decision the
// collector fills in before signaling.
type request struct {
	// v is the caller's extraction, drawn from the pipeline's vecs
	// pool. The collector owns it after the handoff and returns it to
	// the pool once its rows are placed.
	v    *features.Vectors
	dec  *Decision
	done chan struct{}
	// key is the request's cache key, the zero key when the pipeline
	// has no cache attached. The scoring stage stores the sample's
	// verdict under it only when a cache is attached.
	key store.Key
	// t0 is the queue-wait start stamp, the zero time when the batcher
	// is uninstrumented (obs.Histogram.Start on nil reads no clock).
	t0 time.Time
}

// Batcher is a micro-batching front door for concurrent analyze
// traffic: callers Submit the raw bytes of one binary each. With a
// cache attached, a repeat costs one content hash and a lookup. A miss
// is parsed, disassembled and extracted on the caller's own goroutine,
// and only its feature rows go to a collector goroutine, which scores
// them in shared batched forwards. A batch is whoever is waiting when
// the collector frees up — the first request it receives plus every
// submitter already blocked on the handoff, up to analyzeChunkSize — so
// a lone request never waits for company, and requests that arrive
// while a batch is being scored share the next one. Because the
// collector only scores, one large CFG slows only its own submitter,
// never the misses queued behind it. Coalescing changes only
// throughput, never results: scoring is row-independent and each
// sample's rows land at fixed offsets, so a decision is bit-identical
// to a lone AnalyzeBinary call with the same salt regardless of which
// requests shared its batch. Errors are per request — one unparseable
// sample fails only its submitter.
type Batcher struct {
	p    *Pipeline
	reqs chan *request // unbuffered: a send is a handoff, never a buffered slot
	stop chan struct{}
	done chan struct{}
	once sync.Once

	// collector-only scratch, reused across batches. batch and out hold
	// no entries between batches, so a served request's rows and
	// decision are never pinned.
	batch []*request
	out   []*Decision
	keys  []store.Key

	// met holds the batcher's metrics; all fields are nil unless the
	// pipeline was Instrumented before NewBatcher.
	met batcherObs
}

// batcherObs is the batcher's metric set: how long requests wait for
// the collector, and how well they coalesce.
type batcherObs struct {
	waitNs    *obs.Histogram // per-request queue wait, handoff offer to dispatch
	batchSize *obs.Histogram // coalesced batch size distribution
	rejected  *obs.Counter   // submissions turned away before handoff
}

// NewBatcher starts a batcher over a trained pipeline. Callers must
// Close it to release the collector goroutine.
func NewBatcher(p *Pipeline) *Batcher {
	b := &Batcher{
		p:    p,
		reqs: make(chan *request),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if r := p.reg; r != nil {
		b.met = batcherObs{
			waitNs:    r.Histogram("batcher.wait_ns", obs.DurationBuckets()),
			batchSize: r.Histogram("batcher.batch_size", obs.LinearBuckets(1, 1, analyzeChunkSize)),
			rejected:  r.Counter("batcher.rejected"),
		}
	}
	go b.collect()
	return b
}

// Submit analyzes the raw SOTB bytes of one binary through the shared
// batch stream and blocks until its decision is ready. Safe for any
// number of concurrent callers; raw is only read, and not after Submit
// returns. Bytes that do not parse or disassemble fail with an error
// wrapping ErrBadBinary. After Close, Submit returns ErrBatcherClosed;
// a Submit racing Close returns either its decision or
// ErrBatcherClosed, never hangs.
//
// With a cache attached to the pipeline, the request is keyed by its
// content hash before the bytes are parsed: a verdict hit returns at
// once, and concurrent submissions of identical (content, salt)
// coalesce onto one in-flight computation — only the first does the
// work, the rest wait for its published verdict (falling back to their
// own work if it fails). Failures are never cached. Results stay
// bit-identical to uncached Submits.
//
// A miss parses, disassembles and extracts on the caller's goroutine,
// then hands the rows to the collector. A caller that gives up —
// typically an HTTP handler whose client disconnected — cancels ctx
// and stops at the next check or select instead of holding its
// goroutine until the batch completes. Cancellation (or Close) before
// the handoff withdraws the request: it is checked before parsing and
// again before extraction, so a withdrawn request does no further
// work. After the handoff the rows are already coalesced into a batch
// (batch composition never affects other requests' results, so the
// batch runs regardless), and only the wait is abandoned.
func (b *Batcher) Submit(ctx context.Context, raw []byte, salt int64) (*Decision, error) {
	cache := b.p.cache
	if cache == nil {
		return b.analyze(ctx, raw, salt, store.Key{})
	}
	k := b.p.byteKey(raw, salt)
	t := b.p.met.cacheHitNs.Start()
	v, hit, fl, leader := cache.Join(k)
	if hit {
		b.p.met.cacheHitNs.Stop(t)
		return decisionOf(v), nil
	}
	if !leader {
		// Another submitter is already computing this key; wait for its
		// verdict rather than duplicating the work.
		select {
		case <-fl.Done():
			if v, ok := fl.Result(); ok {
				return decisionOf(v), nil
			}
			// The leader failed or gave up: do the work ourselves,
			// uncoordinated (no retry loop — a second failure is ours).
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-b.stop:
			return nil, ErrBatcherClosed
		}
		return b.analyze(ctx, raw, salt, k)
	}
	d, err := b.analyze(ctx, raw, salt, k)
	// Publish to the followers whatever happened — on success the
	// scoring stage already stored the verdict; on failure (including
	// our own cancellation) ok=false sends them back to do the work
	// themselves.
	var vv store.Verdict
	if err == nil {
		vv = verdictOf(d)
	}
	cache.Finish(k, fl, vv, err == nil)
	return d, err
}

// analyze is Submit's miss path, run on the caller's goroutine: parse,
// disassemble and extract, then hand the rows to the collector for
// scoring. The admission check runs before parsing and again before
// extraction.
func (b *Batcher) analyze(ctx context.Context, raw []byte, salt int64, k store.Key) (*Decision, error) {
	if err := b.admit(ctx); err != nil {
		return nil, err
	}
	cfg, err := disassemble(raw)
	if err != nil {
		return nil, err
	}
	if err := b.admit(ctx); err != nil {
		return nil, err
	}
	p := b.p
	vb, _ := p.vecs.Get().(*features.Vectors)
	t := p.met.extractNs.Start()
	v, err := p.Extractor.ExtractInto(vb, cfg, salt)
	p.met.extractNs.Stop(t)
	if err != nil {
		if vb != nil {
			p.vecs.Put(vb)
		}
		p.met.errors.Inc()
		return nil, err
	}
	return b.enqueue(ctx, &request{v: v, key: k, done: make(chan struct{}), t0: b.met.waitNs.Start()})
}

// admit turns a submission away, counted as rejected, once the batcher
// is closed or the caller has given up.
func (b *Batcher) admit(ctx context.Context) error {
	select {
	case <-b.stop:
		b.met.rejected.Inc()
		return ErrBatcherClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		b.met.rejected.Inc()
		return err
	}
	return nil
}

// enqueue hands one request to the collector and waits for completion.
// A submission turned away before the handoff (closed batcher,
// cancelled context) counts as rejected and returns its rows to the
// pool; a caller that abandons its wait after the handoff does not,
// because the batch still serves its slot.
func (b *Batcher) enqueue(ctx context.Context, r *request) (*Decision, error) {
	select {
	case b.reqs <- r:
	case <-b.stop:
		b.p.vecs.Put(r.v)
		b.met.rejected.Inc()
		return nil, ErrBatcherClosed
	case <-ctx.Done():
		b.p.vecs.Put(r.v)
		b.met.rejected.Inc()
		return nil, ctx.Err()
	}
	select {
	case <-r.done:
		return r.dec, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close stops accepting new requests, serves every request already
// handed off, and waits for the collector to exit. Safe to call more
// than once.
func (b *Batcher) Close() {
	b.once.Do(func() { close(b.stop) })
	<-b.done
}

// collect is the batcher's only consumer: it blocks for the first
// request of each batch, tops the batch up with whoever is already
// waiting, and serves it. reqs is unbuffered, so every request it
// receives was a synchronous handoff from a live submitter — on
// shutdown, whatever is still being offered is drained without
// blocking and served, and every later submitter sees the closed stop
// channel instead.
func (b *Batcher) collect() {
	defer close(b.done)
	for {
		select {
		case r := <-b.reqs:
			b.serve(b.topUp(append(b.batch[:0], r)))
		case <-b.stop:
			b.drain()
			return
		}
	}
}

// topUp appends every submitter already blocked on the handoff to
// batch, up to analyzeChunkSize, without waiting for more: a full
// batch is exactly one scoring chunk, never a ragged second one.
func (b *Batcher) topUp(batch []*request) []*request {
	for len(batch) < analyzeChunkSize {
		select {
		case r := <-b.reqs:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// drain serves every request still being offered on reqs, then returns.
func (b *Batcher) drain() {
	for {
		batch := b.topUp(b.batch[:0])
		if len(batch) == 0 {
			return
		}
		b.serve(batch)
	}
}

// serve scores one coalesced batch as one chunk — shape it, place each
// request's rows, one scoreChunk pass — and completes each request with
// its own decision.
func (b *Batcher) serve(batch []*request) {
	p, n := b.p, len(batch)
	b.met.batchSize.Observe(float64(n))
	c := p.getChunk()
	c.shape(p, 0, n)
	b.keys = b.keys[:0]
	for i, r := range batch {
		b.met.waitNs.Stop(r.t0)
		c.place(i, r.v, nil)
		p.vecs.Put(r.v)
		r.v = nil
		b.keys = append(b.keys, r.key)
	}
	if cap(b.out) < n {
		b.out = make([]*Decision, n)
	}
	out := b.out[:n]
	t := p.met.scoreNs.Start()
	// Every placed sample was extracted, so scoring reports no
	// per-sample errors and needs no error slots. The keys are stored
	// only when a cache is attached, and every request then carries one.
	p.scoreChunk(c, out, nil, b.keys)
	p.met.scoreNs.Stop(t)
	p.chunks.Put(c)
	for i, r := range batch {
		r.dec = out[i]
		close(r.done)
		// Drop the scratch's references now that the request is
		// answered: the last batch's entries would otherwise stay live
		// until the next serve, or forever after the final one.
		batch[i], out[i] = nil, nil
	}
	b.batch = batch[:0]
}
