package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"soteria/internal/disasm"
	"soteria/internal/obs"
	"soteria/internal/store"
)

// BatcherConfig tunes the micro-batching front door.
type BatcherConfig struct {
	// MaxBatch caps how many requests coalesce into one batched scoring
	// pass. The default tracks analyzeChunkSize (512), so a full batch
	// is exactly one chunk of the analyze pipeline — one set of sharded
	// GEMMs — and never splits into a ragged second chunk.
	MaxBatch int
	// MaxWait bounds how long the first request of a batch waits for
	// company before the batch is flushed (default 2ms). Lower values
	// favor tail latency, higher values throughput; batch composition
	// never affects results, only speed.
	MaxWait time.Duration
}

func (c *BatcherConfig) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = analyzeChunkSize
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
}

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
// coalesces up to MaxBatch requests (or as many as arrive within
// MaxWait of the first) into shared batched forwards through the
// pipeline's chunked scoring stage. Coalescing changes only
// throughput, never results: scoring is row-independent and each
// sample's rows land at fixed offsets, so a decision is bit-identical
// to a lone Analyze call with the same salt regardless of which
// requests shared its batch. Errors propagate per request — one
// unparseable sample fails only its submitter.
type Batcher struct {
	p    *Pipeline
	cfg  BatcherConfig
	reqs chan *request // unbuffered: a send is a handoff, never parked
	stop chan struct{}
	done chan struct{}
	once sync.Once

	// collector-only scratch, reused across batches.
	cfgs  []*disasm.CFG
	salts []int64
	keys  []store.Key

	// depth counts requests handed off to the collector but not yet
	// served — the batcher's queue backlog. It is the saturation signal
	// admission control keys on: the fleet front door sheds when a
	// replica's depth says new work cannot be served in time.
	depth atomic.Int64

	// met holds the batcher's metrics; all fields are nil unless the
	// pipeline was Instrumented before NewBatcher.
	met batcherObs
}

// batcherObs is the batcher's metric set: how long requests wait for
// company, how well they coalesce, and why batches flush.
type batcherObs struct {
	waitNs     *obs.Histogram // per-request queue wait, Submit to dispatch
	batchSize  *obs.Histogram // coalesced batch size distribution
	flushFull  *obs.Counter   // batches flushed at MaxBatch
	flushTimer *obs.Counter   // batches flushed by the MaxWait timer
	flushClose *obs.Counter   // batches flushed by Close/drain
	queueDepth *obs.Gauge     // requests handed off but not yet served
	rejected   *obs.Counter   // submissions turned away before handoff
}

// NewBatcher starts a batcher over a trained pipeline. Callers must
// Close it to release the collector goroutine.
func NewBatcher(p *Pipeline, cfg BatcherConfig) *Batcher {
	cfg.fill()
	b := &Batcher{
		p:    p,
		cfg:  cfg,
		reqs: make(chan *request),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if r := p.reg; r != nil {
		b.met = batcherObs{
			waitNs:     r.Histogram("batcher.wait_ns", obs.DurationBuckets()),
			batchSize:  r.Histogram("batcher.batch_size", obs.LinearBuckets(1, 1, cfg.MaxBatch)),
			flushFull:  r.Counter("batcher.flush_full"),
			flushTimer: r.Counter("batcher.flush_timer"),
			flushClose: r.Counter("batcher.flush_close"),
			queueDepth: r.Gauge("batcher.queue_depth"),
			rejected:   r.Counter("batcher.rejected"),
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
// The queue-depth gauge brackets the handoff: it rises when the
// collector accepts the request and falls when serve completes it, so
// its value is the number of coalesced-but-unserved requests — the
// backlog admission control reads. A submission turned away before the
// handoff (closed batcher, cancelled context) counts as rejected
// instead; a caller that abandons its wait after the handoff does not,
// because the batch still serves its slot.
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

// QueueDepth reports how many requests have been handed to the
// collector but not yet served — the batcher's current backlog.
// Safe for concurrent use; in-process admission control (a co-located
// fleet front door) reads it directly, remote consumers read the
// "batcher.queue_depth" gauge from /metrics.
func (b *Batcher) QueueDepth() int { return int(b.depth.Load()) }

// accept records one received request into the current batch, stepping
// the queue depth. Depth moves only on the collector goroutine (up
// here, down in serve), so the gauge can never transiently undercount
// a submitter racing a flush.
func (b *Batcher) accept(batch []*request, r *request) []*request {
	b.met.queueDepth.Set(float64(b.depth.Add(1)))
	return append(batch, r)
}

// Close stops accepting new requests, serves every request already
// handed off, and waits for the collector to exit. Safe to call more
// than once.
func (b *Batcher) Close() {
	b.once.Do(func() { close(b.stop) })
	<-b.done
}

// collect is the batcher's only consumer: it gathers the first request
// of each batch, tops the batch up until MaxBatch or MaxWait, and
// serves it. reqs is unbuffered, so every request it receives was a
// synchronous handoff from a live submitter — on shutdown, whatever is
// still being offered is drained without blocking and served, and every
// later submitter sees the closed stop channel instead.
func (b *Batcher) collect() {
	defer close(b.done)
	var batch []*request
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		batch = batch[:0]
		select {
		case r := <-b.reqs:
			batch = b.accept(batch, r)
		case <-b.stop:
			b.drain(batch)
			return
		}
		timer.Reset(b.cfg.MaxWait)
		waiting := true
		for waiting && len(batch) < b.cfg.MaxBatch {
			select {
			case r := <-b.reqs:
				batch = b.accept(batch, r)
			case <-timer.C:
				waiting = false
			case <-b.stop:
				timer.Stop()
				b.serve(batch, b.met.flushClose)
				b.drain(batch[:0])
				return
			}
		}
		if waiting {
			// The inner loop exited with the timer still pending, so the
			// batch reached MaxBatch.
			if !timer.Stop() {
				<-timer.C
			}
			b.serve(batch, b.met.flushFull)
		} else {
			b.serve(batch, b.met.flushTimer)
		}
	}
}

// drain serves every request still being offered on reqs, then returns.
func (b *Batcher) drain(batch []*request) {
	for {
		select {
		case r := <-b.reqs:
			batch = b.accept(batch, r)
			if len(batch) >= b.cfg.MaxBatch {
				b.serve(batch, b.met.flushClose)
				batch = batch[:0]
			}
		default:
			b.serve(batch, b.met.flushClose)
			return
		}
	}
}

// serve runs one coalesced batch through the pipeline and completes
// each request with its own decision or error. reason counts why the
// batch flushed (full, timer, or close; nil when uninstrumented).
func (b *Batcher) serve(batch []*request, reason *obs.Counter) {
	if len(batch) == 0 {
		return
	}
	reason.Inc()
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
	b.met.queueDepth.Set(float64(b.depth.Add(int64(-len(batch)))))
	// Drop the scratch's CFG references now that the batch is served:
	// the entries would otherwise pin the last batch's graphs until the
	// next serve (or forever, on the final batch before Close). Every
	// earlier, longer batch cleared its own entries the same way, so the
	// whole backing array holds no live CFGs between batches.
	for i := range b.cfgs {
		b.cfgs[i] = nil
	}
}
