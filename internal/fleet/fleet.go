// Package fleet is the scale-out serving tier's front door: a
// stdlib-only reverse proxy that routes POST /analyze traffic across a
// set of replica backends (each a `soteria -serve` process or an
// in-process equivalent), turning N single-node servers into one
// production-shaped service.
//
// Four policies define it, each load-bearing for the tier's operating
// constraint — bounded tail latency under saturation, not best-effort
// queueing:
//
//   - Least-loaded routing with consistent-hash affinity. Every request
//     body is hashed; backends are ranked by rendezvous score for that
//     hash, and the dispatcher walks the ranking, taking the first
//     backend whose in-flight count is within AffinitySlack of the
//     fleet minimum. Near balance, the hash-preferred replica wins, so
//     repeat submissions land on the replica whose content-addressed
//     cache already holds their key; under skew the walk falls through
//     to less-loaded replicas — affinity never queues behind a hot
//     spot.
//
//   - Health-gated membership. A background prober GETs every
//     backend's /healthz: two consecutive failures eject a replica
//     from the rotation, two consecutive successes readmit it. A
//     transport error on a live request ejects immediately (the prober
//     readmits after recovery), and the failed request retries on the
//     next-ranked backend — bodies are fully buffered, so failover is
//     safe to replay.
//
//   - Admission control with deadline-aware shedding. A request is
//     rejected with 503 + Retry-After instead of enqueued when the
//     fleet cannot serve it in time: every admissible backend is at
//     its MaxInflight cap, or the request's remaining deadline (the
//     context's, or the client-declared Soteria-Deadline-Ms header) is
//     shorter than the chosen backend's recent service latency.
//     Shedding keeps served-request latency bounded — the queue never
//     grows past what the deadline math says can drain.
//
//   - Graceful drain. Shutdown flips the door to draining (new
//     requests get 503 + Connection: close), waits for in-flight
//     requests to finish, and stops the prober. The owning http.Server
//     stops the listener first, so nothing new arrives while the tail
//     drains.
//
// All observability flows through an optional obs.Registry under the
// "fleet." prefix; a nil registry costs one pointer check per site.
package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"soteria/internal/obs"
)

// DeadlineHeader is the request header a client sets to declare its
// end-to-end budget in milliseconds. The front door sheds the request
// up front if the chosen backend's recent service latency says the
// budget cannot be met — failing in microseconds instead of consuming
// a batcher slot to produce an answer nobody is waiting for.
const DeadlineHeader = "Soteria-Deadline-Ms"

// Config parameterizes a Frontdoor. Zero values take the documented
// defaults.
type Config struct {
	// Backends lists the replica base URLs (e.g. "http://127.0.0.1:9001").
	// Requests forward to <backend><path>?<query> of the incoming
	// request. At least one backend is required.
	Backends []string

	// ProbeInterval is the health-probe period (default 250ms). It also
	// bounds one probe round trip.
	ProbeInterval time.Duration

	// MaxInflight caps the requests concurrently outstanding against
	// one backend; a request that would push every admissible backend
	// past its cap is shed (default 512 — one full scoring batch).
	MaxInflight int

	// AffinitySlack is how far above the fleet-minimum in-flight count
	// the hash-preferred backend may sit and still win routing
	// (default 2). 0 is pure least-loaded with rendezvous tie-breaking.
	AffinitySlack int

	// MaxBody bounds a request body (default 16MiB, matching the
	// replicas' own /analyze limit).
	MaxBody int64

	// Obs receives the fleet's metrics; nil runs uninstrumented.
	Obs *obs.Registry
}

// ejectAfter consecutive probe failures eject a backend from the
// rotation; readmitAfter consecutive successes readmit it.
const (
	ejectAfter   = 2
	readmitAfter = 2
)

func (c *Config) fill() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 512
	}
	if c.AffinitySlack < 0 {
		c.AffinitySlack = 0
	} else if c.AffinitySlack == 0 {
		c.AffinitySlack = 2
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 16 << 20
	}
}

// latUnseeded marks a backend latency EWMA with no observations.
var latUnseeded = math.Float64bits(math.NaN())

// backend is one replica's routing state. All mutable fields are
// atomics: the dispatcher goroutines and the prober share them without
// locks. The struct is always handled by pointer (it must never be
// copied).
type backend struct {
	base    string // canonical base URL, the rendezvous identity
	healthz string // probe target

	inflight atomic.Int64 // requests outstanding through this door
	healthy  atomic.Bool  // in the rotation?
	latBits  atomic.Uint64

	// prober-owned; never touched by dispatcher goroutines.
	consecFail, consecOK int
}

// observeLatency folds one served-request latency into the backend's
// rolling estimate (EWMA, alpha 0.2 — fast enough to track load shifts,
// slow enough to ride out one outlier).
func (b *backend) observeLatency(ns float64) {
	const alpha = 0.2
	for {
		old := b.latBits.Load()
		var nw float64
		if old == latUnseeded {
			nw = ns
		} else {
			m := math.Float64frombits(old)
			nw = m + alpha*(ns-m)
		}
		if b.latBits.CompareAndSwap(old, math.Float64bits(nw)) {
			return
		}
	}
}

// latencyEstimate returns the rolling service-latency estimate in
// nanoseconds, 0 before any observation.
func (b *backend) latencyEstimate() float64 {
	bits := b.latBits.Load()
	if bits == latUnseeded {
		return 0
	}
	return math.Float64frombits(bits)
}

// fleetObs is the front door's metric set; all fields nil when
// uninstrumented.
type fleetObs struct {
	requests     *obs.Counter   // requests admitted and dispatched
	shed         *obs.Counter   // 503s: overload, deadline, drain
	shedDeadline *obs.Counter   // subset of shed: deadline cannot be met
	retries      *obs.Counter   // transport-failover re-dispatches
	errors       *obs.Counter   // 502s: every candidate failed
	latNs        *obs.Histogram // end-to-end served latency
	healthy      *obs.Gauge     // backends currently in rotation
	inflight     *obs.Gauge     // total in-flight through the door
}

// Frontdoor routes /analyze traffic across the configured backends.
// Create with New, mount as the /analyze handler, Shutdown then Close
// on exit. Safe for any number of concurrent requests.
type Frontdoor struct {
	cfg Config
	bes []*backend
	// client forwards requests and probes. Its own Transport keeps the
	// fleet's keep-alive pools apart from the process default.
	client *http.Client

	ctx    context.Context // prober lifetime; Close cancels
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once

	draining atomic.Bool
	inflight atomic.Int64

	met fleetObs
}

// New validates the backend list and starts the health prober. Every
// backend starts healthy (optimistically in rotation) and the prober
// corrects membership from its first round onward.
func New(cfg Config) (*Frontdoor, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("fleet: no backends configured")
	}
	cfg.fill()
	f := &Frontdoor{cfg: cfg, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}}
	for _, raw := range cfg.Backends {
		u, err := url.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("fleet: backend %q: %w", raw, err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return nil, fmt.Errorf("fleet: backend %q: need an http(s) URL", raw)
		}
		if u.Host == "" {
			return nil, fmt.Errorf("fleet: backend %q: missing host", raw)
		}
		base := u.Scheme + "://" + u.Host
		be := &backend{base: base, healthz: base + "/healthz"}
		be.healthy.Store(true)
		be.latBits.Store(latUnseeded)
		f.bes = append(f.bes, be)
	}
	if r := cfg.Obs; r != nil {
		f.met = fleetObs{
			requests:     r.Counter("fleet.requests"),
			shed:         r.Counter("fleet.shed"),
			shedDeadline: r.Counter("fleet.shed_deadline"),
			retries:      r.Counter("fleet.retries"),
			errors:       r.Counter("fleet.errors"),
			latNs:        r.Histogram("fleet.latency_ns", obs.DurationBuckets()),
			healthy:      r.Gauge("fleet.healthy"),
			inflight:     r.Gauge("fleet.inflight"),
		}
	}
	f.met.healthy.Set(float64(len(f.bes)))
	// The prober's lifetime is the Frontdoor's own, not any request's:
	// it starts here (New has no caller context) and Close cancels it.
	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.wg.Add(1)
	go f.probeLoop(f.ctx)
	return f, nil
}

// Healthy reports how many backends are currently in rotation.
func (f *Frontdoor) Healthy() int {
	n := 0
	for _, be := range f.bes {
		if be.healthy.Load() {
			n++
		}
	}
	return n
}

// Inflight reports the requests currently being forwarded.
func (f *Frontdoor) Inflight() int { return int(f.inflight.Load()) }

// Shutdown drains the front door: new requests are shed with 503 +
// Connection: close, and Shutdown blocks until every in-flight request
// has completed or ctx expires. Stop the owning http.Server's listener
// first so nothing new arrives mid-drain; call Close afterwards.
func (f *Frontdoor) Shutdown(ctx context.Context) error {
	f.draining.Store(true)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for f.inflight.Load() != 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	return nil
}

// Close stops the health prober and drops the front door's idle
// keep-alive connections. Idempotent; the Frontdoor must not serve
// requests after Close.
func (f *Frontdoor) Close() {
	f.once.Do(f.cancel)
	f.wg.Wait()
	f.client.CloseIdleConnections()
}

// rendezvousScore is the highest-random-weight hash of (backend,
// content): FNV-1a over the backend identity then the content digest.
// Each backend scores every request independently, so membership
// changes reshuffle only the keys owned by the ejected/readmitted
// replica — the property that keeps the remaining replicas' caches
// warm through a failure.
func rendezvousScore(base string, sum [32]byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(base); i++ {
		h = (h ^ uint64(base[i])) * prime64
	}
	for _, b := range sum {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

// errNoBackend distinguishes "every candidate is over its admission
// bounds" (shed) from transport failure (bad gateway).
var errNoBackend = errors.New("fleet: no admissible backend")

// pick chooses the backend for one request: walk backends in
// descending rendezvous order for the request's content digest,
// skipping unhealthy or already-tried ones, and take the first whose
// in-flight count is within AffinitySlack of the fleet minimum and
// under MaxInflight. Returns errNoBackend when every healthy candidate
// is over bounds — the shed signal. Admission reads are advisory: two
// racing requests may both admit against the same last slot,
// overshooting a cap by ones, which bounded queues absorb.
func (f *Frontdoor) pick(sum [32]byte, tried map[*backend]bool) (*backend, error) {
	minIn := int64(math.MaxInt64)
	candidates := 0
	for _, be := range f.bes {
		if !be.healthy.Load() || tried[be] {
			continue
		}
		candidates++
		if in := be.inflight.Load(); in < minIn {
			minIn = in
		}
	}
	if candidates == 0 {
		return nil, errNoBackend
	}
	slack := int64(f.cfg.AffinitySlack)
	var best *backend
	var bestScore uint64
	for {
		best, bestScore = nil, 0
		for _, be := range f.bes {
			if !be.healthy.Load() || tried[be] {
				continue
			}
			if s := rendezvousScore(be.base, sum); best == nil || s > bestScore {
				best, bestScore = be, s
			}
		}
		if best == nil {
			return nil, errNoBackend
		}
		if in := best.inflight.Load(); in <= minIn+slack && in < int64(f.cfg.MaxInflight) {
			return best, nil
		}
		// At its MaxInflight cap, or too far above the fleet minimum for
		// the affinity preference to beat load: fall through the ranking.
		tried[best] = true
	}
}

// markFailed ejects a backend after a transport failure on a live
// request. The prober readmits it once /healthz passes again.
func (f *Frontdoor) markFailed(be *backend) {
	if be.healthy.CompareAndSwap(true, false) {
		f.met.healthy.Set(float64(f.Healthy()))
	}
}

// shed rejects a request with 503 + Retry-After: 1.
func (f *Frontdoor) shed(w http.ResponseWriter, reason string, deadline bool) {
	f.met.shed.Inc()
	if deadline {
		f.met.shedDeadline.Inc()
	}
	w.Header().Set("Retry-After", "1")
	if f.draining.Load() {
		w.Header().Set("Connection", "close")
	}
	http.Error(w, reason, http.StatusServiceUnavailable)
}

// deadlineOf extracts the request's effective deadline: the context's
// if set (a front-door server timeout), else the client-declared
// DeadlineHeader budget measured from now. ok is false when the
// request carries no deadline at all.
func deadlineOf(r *http.Request) (time.Time, bool) {
	if dl, ok := r.Context().Deadline(); ok {
		return dl, true
	}
	if v := r.Header.Get(DeadlineHeader); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			return time.Now().Add(time.Duration(ms) * time.Millisecond), true
		}
	}
	return time.Time{}, false
}

// ServeHTTP dispatches one request: buffer the body, hash it, pick a
// backend, forward, and stream the response back. Transport failures
// eject the backend and retry the fully-buffered request on the next
// choice; only when every candidate has failed does the client see
// 502.
func (f *Frontdoor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a raw SOTB binary", http.StatusMethodNotAllowed)
		return
	}
	if f.draining.Load() {
		f.shed(w, "draining", false)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, f.cfg.MaxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	f.inflight.Add(1)
	f.met.inflight.Set(float64(f.inflight.Load()))
	defer func() {
		f.met.inflight.Set(float64(f.inflight.Add(-1)))
	}()

	// Routing key: content bytes plus the raw query, so distinct salts
	// of one binary key like their distinct cache entries do.
	sum := contentDigest(body, r.URL.RawQuery)
	deadline, hasDeadline := deadlineOf(r)

	t0 := f.met.latNs.Start()
	tried := make(map[*backend]bool, len(f.bes))
	for {
		be, pickErr := f.pick(sum, tried)
		if pickErr != nil {
			if len(tried) > 0 && f.allTriedFailed(tried) {
				// Everything we reached died mid-request.
				f.met.errors.Inc()
				http.Error(w, "all backends failed", http.StatusBadGateway)
				return
			}
			f.shed(w, "fleet saturated", false)
			return
		}
		if hasDeadline {
			if est := be.latencyEstimate(); est > 0 && float64(time.Until(deadline).Nanoseconds()) < est {
				f.shed(w, "deadline cannot be met", true)
				return
			}
		}
		f.met.requests.Inc()
		ok := f.forward(w, r, be, body, t0)
		if ok {
			return
		}
		// Transport failure: be is ejected; retry the next candidate
		// with the same buffered body.
		tried[be] = true
		f.met.retries.Inc()
	}
}

// allTriedFailed reports whether every entry in tried was a transport
// failure (as opposed to an admission exclusion): used to distinguish
// 502 from 503 when pick runs out of candidates. Ejected backends are
// unhealthy; admission exclusions stay healthy.
func (f *Frontdoor) allTriedFailed(tried map[*backend]bool) bool {
	for be := range tried {
		if be.healthy.Load() {
			return false
		}
	}
	return true
}

// contentDigest hashes the routing key: the raw body, a separator, and
// the query string.
func contentDigest(body []byte, query string) [32]byte {
	h := sha256.New()
	h.Write(body)
	h.Write([]byte{0})
	io.WriteString(h, query)
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// forward proxies one attempt. Returns false on a transport error
// (after ejecting the backend); HTTP-level responses of any status are
// relayed to the client and count as success — the backend answered.
func (f *Frontdoor) forward(w http.ResponseWriter, r *http.Request, be *backend, body []byte, t0 time.Time) bool {
	be.inflight.Add(1)
	defer be.inflight.Add(-1)

	target := be.base + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		f.markFailed(be)
		return false
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if v := r.Header.Get(DeadlineHeader); v != "" {
		req.Header.Set(DeadlineHeader, v)
	}
	start := time.Now()
	resp, err := f.client.Do(req)
	if err != nil {
		// The client's own cancellation is not the backend's failure:
		// don't eject, don't retry — the caller is gone.
		if r.Context().Err() != nil {
			http.Error(w, r.Context().Err().Error(), statusClientClosedRequest)
			return true
		}
		f.markFailed(be)
		return false
	}
	if resp.StatusCode == http.StatusOK {
		be.observeLatency(float64(time.Since(start).Nanoseconds()))
	}
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, copyErr := io.Copy(w, resp.Body)
	closeErr := resp.Body.Close()
	if copyErr == nil && closeErr == nil {
		f.met.latNs.Stop(t0)
	}
	return true
}

// statusClientClosedRequest is nginx's conventional status for a
// client that disconnected before the response was ready.
const statusClientClosedRequest = 499
