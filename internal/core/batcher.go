package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"soteria/internal/disasm"
	"soteria/internal/obs"
	"soteria/internal/store"
)

// ErrBatcherClosed is returned by Submit once Close has begun.
var ErrBatcherClosed = errors.New("core: batcher closed")

// request is one caller's unit of work: the input, a completion signal,
// and the slots the collector fills before signaling.
type request struct {
	cfg  *disasm.CFG
	salt int64
	dec  *Decision
	err  error
	done chan struct{}
	// key is the request's cache key; withKey marks it valid (set for
	// every request when the pipeline has a cache attached), which asks
	// the scoring stage to store this sample's verdict.
	key     store.Key
	withKey bool
	// t0 is the queue-wait start stamp, the zero time when the batcher
	// is uninstrumented (obs.Histogram.Start on nil reads no clock).
	t0 time.Time
}

// Batcher is a micro-batching front door for concurrent analyze
// traffic: callers Submit one CFG each, and a collector goroutine
// serves them through the pipeline's chunked scoring stage in shared
// batched forwards. A batch is whoever is waiting when the collector
// frees up — the first request it receives plus every submitter
// already blocked on the handoff, up to analyzeChunkSize — so a lone
// request never waits for company, and requests that arrive while a
// batch is being scored share the next one. Coalescing changes only
// throughput, never results: scoring is row-independent and each
// sample's rows land at fixed offsets, so a decision is bit-identical
// to a lone Analyze call with the same salt regardless of which
// requests shared its batch. Errors propagate per request — one
// unparseable sample fails only its submitter.
type Batcher struct {
	p    *Pipeline
	reqs chan *request // unbuffered: a send is a handoff, never a buffered slot
	stop chan struct{}
	done chan struct{}
	once sync.Once

	// collector-only scratch, reused across batches.
	cfgs  []*disasm.CFG
	salts []int64
	keys  []store.Key

	// met holds the batcher's metrics; all fields are nil unless the
	// pipeline was Instrumented before NewBatcher.
	met batcherObs
}

// batcherObs is the batcher's metric set: how long requests wait for
// the collector, and how well they coalesce.
type batcherObs struct {
	waitNs    *obs.Histogram // per-request queue wait, Submit to dispatch
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

// Submit analyzes one CFG through the shared batch stream and blocks
// until its decision is ready. Safe for any number of concurrent
// callers. After Close, Submit returns ErrBatcherClosed; a Submit
// racing Close returns either its decision or ErrBatcherClosed, never
// hangs.
//
// A caller that gives up — typically an HTTP handler whose client
// disconnected — cancels ctx and stops waiting at the next select
// instead of holding its goroutine until the batch completes.
// Cancellation before the handoff withdraws the request entirely;
// after the handoff the work is already coalesced into a batch (batch
// composition never affects other requests' results, so the batch runs
// regardless), and only the wait is abandoned.
//
// With a cache attached to the pipeline, a verdict hit returns without
// ever occupying a batch slot, and concurrent submissions of identical
// (content, salt) coalesce onto one in-flight computation: only the
// first enters the batch stream, the rest wait for its published
// verdict (falling back to their own submission if it fails). Results
// stay bit-identical to uncached Submits.
func (b *Batcher) Submit(ctx context.Context, c *disasm.CFG, salt int64) (*Decision, error) {
	cache := b.p.cache
	if cache == nil {
		return b.enqueue(ctx, &request{cfg: c, salt: salt, done: make(chan struct{}), t0: b.met.waitNs.Start()})
	}
	k := b.p.cfgKey(c, salt)
	t := b.p.met.cacheHitNs.Start()
	v, hit, fl, leader := cache.Join(k)
	if hit {
		b.p.met.cacheHitNs.Stop(t)
		return decisionOf(v), nil
	}
	if !leader {
		// Another submitter is already computing this key; wait for its
		// verdict rather than duplicating the work in the batch.
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
		return b.enqueue(ctx, &request{cfg: c, salt: salt, key: k, withKey: true, done: make(chan struct{}), t0: b.met.waitNs.Start()})
	}
	d, err := b.enqueue(ctx, &request{cfg: c, salt: salt, key: k, withKey: true, done: make(chan struct{}), t0: b.met.waitNs.Start()})
	// Publish to the followers whatever happened — on success the
	// scoring stage already stored the verdict; on failure (including
	// our own cancellation) ok=false sends them back to submit
	// themselves.
	var vv store.Verdict
	if err == nil {
		vv = verdictOf(d)
	}
	cache.Finish(k, fl, vv, err == nil)
	return d, err
}

// enqueue hands one request to the collector and waits for completion.
// A submission turned away before the handoff (closed batcher,
// cancelled context) counts as rejected; a caller that abandons its
// wait after the handoff does not, because the batch still serves its
// slot.
func (b *Batcher) enqueue(ctx context.Context, r *request) (*Decision, error) {
	select {
	case b.reqs <- r:
	case <-b.stop:
		b.met.rejected.Inc()
		return nil, ErrBatcherClosed
	case <-ctx.Done():
		b.met.rejected.Inc()
		return nil, ctx.Err()
	}
	select {
	case <-r.done:
		return r.dec, r.err
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
	var batch []*request
	for {
		select {
		case r := <-b.reqs:
			batch = b.topUp(append(batch[:0], r))
			b.serve(batch)
		case <-b.stop:
			b.drain(batch)
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
func (b *Batcher) drain(batch []*request) {
	for {
		batch = b.topUp(batch[:0])
		if len(batch) == 0 {
			return
		}
		b.serve(batch)
	}
}

// serve runs one coalesced batch through the pipeline and completes
// each request with its own decision or error.
func (b *Batcher) serve(batch []*request) {
	b.met.batchSize.Observe(float64(len(batch)))
	b.cfgs = b.cfgs[:0]
	b.salts = b.salts[:0]
	b.keys = b.keys[:0]
	withKeys := true
	for _, r := range batch {
		b.cfgs = append(b.cfgs, r.cfg)
		b.salts = append(b.salts, r.salt)
		b.keys = append(b.keys, r.key)
		if !r.withKey {
			withKeys = false
		}
		b.met.waitNs.Stop(r.t0)
	}
	var keys []store.Key
	if withKeys && b.p.cache != nil {
		keys = b.keys
	}
	decs, errs := b.p.analyzeBatch(b.cfgs, b.salts, keys)
	for i, r := range batch {
		r.dec, r.err = decs[i], errs[i]
		close(r.done)
	}
	// Drop the scratch's CFG references now that the batch is served:
	// the entries would otherwise pin the last batch's graphs until the
	// next serve (or forever, on the final batch before Close). Every
	// earlier, longer batch cleared its own entries the same way, so the
	// whole backing array holds no live CFGs between batches.
	for i := range b.cfgs {
		b.cfgs[i] = nil
	}
}
