package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"soteria"
	"soteria/internal/fleet"
)

// shutdownGrace bounds how long a stopping server waits for in-flight
// work before giving up the drain.
const shutdownGrace = 10 * time.Second

// newHTTPServer wraps a handler with the serving tier's protective
// timeouts: ReadHeaderTimeout stops slow-loris header dribble from
// pinning goroutines, IdleTimeout reaps abandoned keep-alive
// connections. Body reads stay unbounded-in-time because /analyze
// accepts multi-megabyte uploads from slow links; MaxBytesReader
// bounds their size instead.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
}

// serveGracefully serves srv on ln until SIGINT/SIGTERM (or a listener
// failure), then shuts down in order: stop the listener and wait for
// in-flight HTTP requests (srv.Shutdown), then run each drain hook —
// front doors drain before their replicas, batchers close after their
// servers stop feeding them. It owns the process lifecycle, so the
// root context is minted here and every drain hook receives the
// grace-bounded child.
func serveGracefully(srv *http.Server, ln net.Listener, drains ...func(context.Context) error) error {
	// Every model this process serves is loaded by now. One collection
	// drops the model decode's garbage, so the serving heap's first GC
	// goal is twice the live models, not twice whatever a cycle
	// happened to catch mid-decode: without it, serve mode's peak RSS
	// landed at either ≈110 or ≈156 MiB at DefaultOptions, at random.
	runtime.GC()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of re-queueing
	fmt.Fprintln(os.Stderr, "shutting down...")
	gctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := srv.Shutdown(gctx)
	for _, drain := range drains {
		if derr := drain(gctx); derr != nil && err == nil {
			err = derr
		}
	}
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// serveSingle runs one-replica serve mode: the existing handler
// surface behind a hardened http.Server, with the model registry
// closed (draining every version's batcher) only after the listener
// has stopped accepting work.
func serveSingle(addr string, reg *soteria.Registry, mr *soteria.ModelRegistry) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serving on %s (/analyze, /models, /metrics, /healthz, /debug/pprof/)\n", ln.Addr())
	return serveGracefully(newHTTPServer(serveHandler(reg, mr)), ln,
		func(context.Context) error { mr.Close(); return nil })
}

// replicaServer is one in-process serving replica: an independent
// System copy behind its own model registry, metric registry, cache,
// and loopback listener — the same isolation as N separate -serve
// processes, without the process management.
type replicaServer struct {
	url        string
	srv        *http.Server
	ln         net.Listener
	mr         *soteria.ModelRegistry
	closeCache func()
}

// spawnReplica builds and starts one replica from the saved model
// image. Each replica carries a full model registry, so fleet-wide
// hot swaps are per-replica swaps fanned out by the front door.
func spawnReplica(model []byte, noCache bool, cacheMaxBytes int64) (*replicaServer, error) {
	reg := soteria.NewRegistry()
	sys, err := soteria.Load(bytes.NewReader(model))
	if err != nil {
		return nil, fmt.Errorf("replica model: %w", err)
	}
	var cache *soteria.Cache
	closeCache := func() {}
	if !noCache {
		cache, err = soteria.OpenCache(soteria.CacheConfig{MaxBytes: cacheMaxBytes, Obs: reg})
		if err != nil {
			return nil, err
		}
		closeCache = func() {
			if cerr := cache.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "soteria: replica cache: %v\n", cerr)
			}
		}
	}
	mr := soteria.NewModelRegistry(soteria.ModelRegistryConfig{Obs: reg, Cache: cache})
	id, err := soteria.AddModel(mr, sys)
	if err == nil {
		err = mr.Activate(id)
	}
	if err != nil {
		mr.Close()
		closeCache()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mr.Close()
		closeCache()
		return nil, err
	}
	r := &replicaServer{
		url:        "http://" + ln.Addr().String(),
		srv:        newHTTPServer(serveHandler(reg, mr)),
		ln:         ln,
		mr:         mr,
		closeCache: closeCache,
	}
	go func() {
		if serr := r.srv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "soteria: replica %s: %v\n", r.url, serr)
		}
	}()
	return r, nil
}

// drain stops the replica: listener first, then the model registry
// (every version's batcher serves its queued tail), then the cache
// log.
func (r *replicaServer) drain(ctx context.Context) error {
	err := r.srv.Shutdown(ctx)
	r.mr.Close()
	r.closeCache()
	return err
}

// frontdoorHandler mounts the fleet surface: /analyze routed by the
// front door, /models broadcast to every replica's model registry,
// /metrics for the fleet.* registry, /healthz for the door itself.
func frontdoorHandler(door *fleet.Frontdoor, reg *soteria.Registry, urls []string) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/analyze", door)
	admin := adminBroadcastHandler(urls)
	mux.Handle("/models", admin)
	mux.Handle("/models/", admin)
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// adminBroadcastClient carries fleet admin fan-out requests. Loading a
// model into a replica can take a while (the body is the whole saved
// model), so the timeout is generous; it exists to bound a hung
// replica, not a slow one.
var adminBroadcastClient = &http.Client{Timeout: 2 * time.Minute}

// replicaAdminResult is one replica's answer to a broadcast admin call.
type replicaAdminResult struct {
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// adminBroadcastHandler fans a /models admin request out to every
// replica's own registry and aggregates the answers keyed by replica
// URL. A fleet hot swap is therefore N independent per-replica swaps:
// each replica keeps serving through the whole sequence, so the fleet
// never loses capacity, and the front door's health/affinity state
// never notices. The response is 200 only when every replica accepted;
// one failure turns it into a 502 with the per-replica detail, and the
// operator retries (registry operations are idempotent) or rolls back.
func adminBroadcastHandler(urls []string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		if r.Method != http.MethodGet {
			var err error
			body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxModelUpload))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		results := make(map[string]replicaAdminResult, len(urls))
		allOK := true
		for _, u := range urls {
			res := broadcastOne(r, u, body)
			if res.Error != "" || res.Status < 200 || res.Status > 299 {
				allOK = false
			}
			results[u] = res
		}
		status := http.StatusOK
		if !allOK {
			status = http.StatusBadGateway
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(results)
	})
}

// broadcastOne replays one admin request against a single replica,
// preserving method, path, and query. The caller's request context
// bounds the call, so an operator abandoning the broadcast stops the
// remaining fan-out.
func broadcastOne(r *http.Request, base string, body []byte) replicaAdminResult {
	req, err := http.NewRequestWithContext(r.Context(), r.Method,
		base+r.URL.Path+querySuffix(r), bytes.NewReader(body))
	if err != nil {
		return replicaAdminResult{Error: err.Error()}
	}
	res, err := adminBroadcastClient.Do(req)
	if err != nil {
		return replicaAdminResult{Error: err.Error()}
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(res.Body, 1<<20))
	if err != nil {
		return replicaAdminResult{Status: res.StatusCode, Error: err.Error()}
	}
	out := replicaAdminResult{Status: res.StatusCode}
	if json.Valid(raw) {
		out.Body = raw
	} else if len(raw) > 0 {
		// Replica error bodies are plain text; carry them in Error so
		// the aggregate stays one JSON document.
		out.Error = strings.TrimSpace(string(raw))
	}
	return out
}

func querySuffix(r *http.Request) string {
	if r.URL.RawQuery == "" {
		return ""
	}
	return "?" + r.URL.RawQuery
}

// maxModelUpload bounds a broadcast POST /models body, matching the
// registry admin API's own bound.
const maxModelUpload = 256 << 20

// serveFleetSpawn runs the scale-out tier in one process: n in-process
// replicas (each a full System copy with its own Batcher and cache) on
// loopback listeners, fronted by a fleet.Frontdoor on addr. Shutdown
// order on signal: front listener, door drain (in-flight proxied
// requests finish), prober stop, then each replica.
func serveFleetSpawn(addr string, n int, sys *soteria.System, noCache bool, cacheMaxBytes int64) error {
	var model bytes.Buffer
	if err := sys.Save(&model); err != nil {
		return fmt.Errorf("snapshot model for replicas: %w", err)
	}
	replicas := make([]*replicaServer, 0, n)
	stopAll := func() {
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		for _, r := range replicas {
			if err := r.drain(sctx); err != nil {
				fmt.Fprintf(os.Stderr, "soteria: replica %s drain: %v\n", r.url, err)
			}
		}
	}
	for i := 0; i < n; i++ {
		r, err := spawnReplica(model.Bytes(), noCache, cacheMaxBytes)
		if err != nil {
			stopAll()
			return fmt.Errorf("replica %d: %w", i, err)
		}
		replicas = append(replicas, r)
	}
	urls := make([]string, len(replicas))
	for i, r := range replicas {
		urls[i] = r.url
	}
	fmt.Fprintf(os.Stderr, "spawned %d replicas: %s\n", n, strings.Join(urls, " "))
	// The front door tears the replicas down as its last drain step; if
	// it fails before serving (bad address, bad config), do it here.
	drained := false
	err := serveFleetFront(addr, urls, func() { drained = true; stopAll() })
	if !drained {
		stopAll()
	}
	return err
}

// serveFleetFront serves a fleet front door on addr over the given
// replica base URLs. afterDrain (optional) runs last in the shutdown
// sequence, after the door has drained — the spawn path hands its
// replica teardown in through it.
func serveFleetFront(addr string, urls []string, afterDrain func()) error {
	reg := soteria.NewRegistry()
	door, err := fleet.New(fleet.Config{Backends: urls, Obs: reg})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		door.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "fleet front door on %s over %d replicas (/analyze, /models, /metrics, /healthz)\n",
		ln.Addr(), len(urls))
	return serveGracefully(newHTTPServer(frontdoorHandler(door, reg, urls)), ln,
		func(ctx context.Context) error { return door.Shutdown(ctx) },
		func(context.Context) error {
			door.Close()
			if afterDrain != nil {
				afterDrain()
			}
			return nil
		})
}
