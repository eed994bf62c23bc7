// Command soteria trains the full Soteria system on a synthetic corpus
// and analyzes SOTB binaries: adversarial-example detection first, then
// family classification — the paper's Fig. 2 deployment.
//
// Usage:
//
//	soteria [-load model.json | -train-per-class N] [-save model.json] \
//	        [-serve addr | -fleet addr -replicas N|url,...] \
//	        [-cache-dir DIR | -no-cache] [-cache-max-bytes N] [-salt N] \
//	        file.sotb [file2.sotb ...]
//
// Training data is generated on the fly (the corpus generator is the
// dataset substitute; see DESIGN.md); -save persists the trained system
// and -load skips training entirely. Analysis prints one line per
// input: verdict, reconstruction error, and class.
//
// Repeat submissions are served from a content-addressed verdict cache
// (in-memory by default; -cache-dir persists it across restarts,
// -cache-max-bytes bounds it, -no-cache disables it). Cache keys
// include the model fingerprint, so swapping models never serves stale
// verdicts.
//
// -serve starts an HTTP server instead of analyzing files: POST raw
// SOTB bytes to /analyze (optional ?salt=N) for a JSON decision served
// through a micro-batching Batcher, GET /metrics for the observability
// registry's JSON snapshot (training and serving metrics; see DESIGN.md
// §9), GET /healthz for liveness, and /debug/pprof/ for the standard
// profiles. The server shuts down gracefully on SIGINT/SIGTERM: the
// listener stops, in-flight requests finish, and the Batcher drains.
//
// Serve mode runs behind a versioned model registry (DESIGN.md §12):
// the startup model is version one, and the /models admin API hot-swaps
// later versions with zero downtime — POST a saved model to /models,
// shadow-score it against live traffic (POST /models/{id}/shadow, gate
// on the registry.shadow_* metrics), then POST /models/{id}/activate to
// cut over.
//
// -fleet starts the scale-out serving tier (DESIGN.md §11) instead: a
// front door on addr that routes /analyze across replicas with
// least-loaded routing, health-gated membership, and deadline-aware
// load shedding. -replicas N spawns N in-process replicas (each an
// independent model copy with its own Batcher and in-memory cache);
// -replicas url1,url2 fronts already-running -serve processes and
// needs no model at all.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"soteria"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "soteria:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("soteria", flag.ContinueOnError)
	perClass := fs.Int("train-per-class", 40, "training samples generated per class")
	seed := fs.Int64("seed", 1, "generator and training seed")
	loadPath := fs.String("load", "", "load a trained model instead of training")
	savePath := fs.String("save", "", "save the trained model to this path")
	serveAddr := fs.String("serve", "", "serve /analyze, /metrics, /healthz, /debug/pprof on this address instead of analyzing files")
	fleetAddr := fs.String("fleet", "", "serve a fleet front door on this address (requires -replicas)")
	replicasSpec := fs.String("replicas", "", "fleet replicas: an integer N to spawn in-process, or comma-separated base URLs of running -serve processes")
	salt := fs.Int64("salt", 0, "walk-randomness salt applied to every analyzed file (content-stable, so repeat inputs share cache entries)")
	cacheDir := fs.String("cache-dir", "", "persist the verdict cache in this directory (default: in-memory only)")
	cacheMaxBytes := fs.Int64("cache-max-bytes", soteria.DefaultCacheMaxBytes, "byte budget for the verdict cache (LRU-evicted past it)")
	noCache := fs.Bool("no-cache", false, "disable the verdict cache entirely")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *noCache && *cacheDir != "" {
		return fmt.Errorf("-no-cache and -cache-dir conflict: pick one")
	}
	// A loaded model is already trained, so training flags given next to
	// -load would be silently ignored; diagnose the conflict instead.
	if *loadPath != "" {
		conflict := ""
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "train-per-class" {
				conflict = f.Name
			}
		})
		if conflict != "" {
			return fmt.Errorf("-load and -%s conflict: a loaded model is already trained", conflict)
		}
	}
	files := fs.Args()
	if len(files) > 0 && *serveAddr != "" {
		return fmt.Errorf("-serve and file arguments conflict: serve mode analyzes via POST /analyze")
	}
	if len(files) > 0 && *fleetAddr != "" {
		return fmt.Errorf("-fleet and file arguments conflict: fleet mode analyzes via POST /analyze")
	}
	if *fleetAddr != "" && *serveAddr != "" {
		return fmt.Errorf("-fleet and -serve conflict: pick one serving mode")
	}
	if *replicasSpec != "" && *fleetAddr == "" {
		return fmt.Errorf("-replicas requires -fleet: replicas only exist behind a front door")
	}
	// Resolve the replica spec: an integer spawns in-process replicas
	// (needs a model), URLs front already-running servers (needs none).
	var fleetN int
	var fleetURLs []string
	if *fleetAddr != "" {
		switch n, err := strconv.Atoi(*replicasSpec); {
		case *replicasSpec == "":
			return fmt.Errorf("-fleet requires -replicas (an integer count or comma-separated URLs)")
		case err == nil && n < 1:
			return fmt.Errorf("-replicas %d: need at least one replica", n)
		case err == nil:
			fleetN = n
		default:
			fleetURLs = strings.Split(*replicasSpec, ",")
		}
	}
	if fleetN > 0 && *cacheDir != "" {
		return fmt.Errorf("-cache-dir and -replicas %d conflict: spawned replicas use independent in-memory caches", fleetN)
	}
	if len(fleetURLs) > 0 && (*loadPath != "" || *savePath != "") {
		return fmt.Errorf("-fleet over replica URLs proxies to running servers and loads no model; drop -load/-save")
	}
	if len(files) == 0 && *savePath == "" && *serveAddr == "" && *fleetAddr == "" {
		return fmt.Errorf("usage: soteria [flags] file.sotb [file2.sotb ...]")
	}

	// URL-mode fleet needs no model: go straight to the front door.
	if len(fleetURLs) > 0 {
		return serveFleetFront(*fleetAddr, fleetURLs, nil)
	}

	// In serve mode the registry is live from the start, so training
	// metrics (train.detector.*, train.classifier.*) appear alongside
	// the serving ones.
	var reg *soteria.Registry
	if *serveAddr != "" {
		reg = soteria.NewRegistry()
	}

	var sys *soteria.System
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			return err
		}
		defer f.Close()
		sys, err = soteria.Load(f)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loaded model from %s\n", *loadPath)
	} else {
		gen := soteria.NewGenerator(soteria.GeneratorConfig{Seed: *seed})
		counts := map[soteria.Class]int{}
		for _, c := range soteria.Classes {
			counts[c] = *perClass
		}
		fmt.Fprintf(os.Stderr, "generating %d training samples...\n", *perClass*len(soteria.Classes))
		corpus, err := gen.Corpus(counts)
		if err != nil {
			return err
		}
		opts := soteria.DefaultOptions()
		opts.Seed = *seed
		opts.Obs = reg
		start := time.Now()
		fmt.Fprintln(os.Stderr, "training detector and classifier...")
		sys, err = soteria.Train(corpus, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trained in %v\n", time.Since(start).Round(time.Second))
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			return err
		}
		if err := sys.Save(f); err != nil {
			// Save already failed; its error outranks the close result.
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "saved model to %s\n", *savePath)
	}

	// The result cache attaches after persistence, so keys pin the final
	// model fingerprint. Close flushes the record log; a degraded cache
	// (I/O error mid-run) surfaces here rather than being lost.
	// Spawned fleet replicas attach their own per-replica caches, so the
	// base system stays cacheless in that mode.
	var cache *soteria.Cache
	if !*noCache && fleetN == 0 {
		var err error
		cache, err = soteria.OpenCache(soteria.CacheConfig{
			Dir:      *cacheDir,
			MaxBytes: *cacheMaxBytes,
			Obs:      reg,
		})
		if err != nil {
			return err
		}
		closeCache := func() {
			if cerr := cache.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "soteria: cache: %v\n", cerr)
			}
		}
		defer closeCache()
		if err := sys.AttachCache(cache); err != nil {
			return err
		}
		if *cacheDir != "" {
			fmt.Fprintf(os.Stderr, "cache: %s (%d entries replayed)\n", *cacheDir, cache.Len())
		}
	}

	if *serveAddr != "" {
		// Serve through the versioned model registry: the trained/loaded
		// system becomes version one, and the /models admin API can load,
		// shadow, and hot-swap later versions without dropping requests.
		// Activation instruments the pipeline against reg and starts its
		// batcher; the shared cache keyspace is fingerprint-disjoint per
		// version.
		mr := soteria.NewModelRegistry(soteria.ModelRegistryConfig{Obs: reg, Cache: cache})
		// serveSingle closes the registry (draining every version's
		// batcher) once the listener stops; this deferred Close is the
		// idempotent backstop for listener errors.
		defer mr.Close()
		id, err := soteria.AddModel(mr, sys)
		if err != nil {
			return err
		}
		if err := mr.Activate(id); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "serving model version %s\n", id)
		return serveSingle(*serveAddr, reg, mr)
	}
	if fleetN > 0 {
		return serveFleetSpawn(*fleetAddr, fleetN, sys, *noCache, *cacheMaxBytes)
	}

	// Validate each file up front (so an unreadable or malformed file is
	// named precisely), then score the whole set from raw bytes in one
	// batched pass — the binary path consults the content-addressed
	// cache. Every file shares the -salt value (default 0): cache keys
	// are (content, salt, model), so a content-stable salt lets duplicate
	// inputs — in one run or across runs at different argv positions —
	// share one key instead of defeating the cache positionally.
	raws := make([][]byte, len(files))
	salts := make([]int64, len(files))
	for i, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		bin, err := soteria.ParseBinary(raw)
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if _, err := soteria.Disassemble(bin); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		raws[i] = raw
		salts[i] = *salt
	}
	if len(files) == 0 {
		return nil
	}
	decs, err := sys.AnalyzeBinaryBatch(raws, salts)
	if err != nil {
		return err
	}
	for i, f := range files {
		dec := decs[i]
		verdict := "clean"
		if dec.Adversarial {
			verdict = "ADVERSARIAL"
		}
		fmt.Printf("%s: %s (RE=%.6f) class=%s\n", f, verdict, dec.RE, dec.Class)
	}
	return nil
}

// analyzeResponse is /analyze's JSON decision.
type analyzeResponse struct {
	Adversarial bool    `json:"adversarial"`
	RE          float64 `json:"re"`
	Class       string  `json:"class"`
}

// maxAnalyzeBody bounds an /analyze request's binary.
const maxAnalyzeBody = 16 << 20

// serveHandler builds the serve-mode HTTP handler: /analyze (POST raw
// SOTB bytes, decisions via the active model version's micro-batching
// Batcher, which answers a cached repeat before parsing; bytes that do
// not parse or disassemble get 400), /models (the model registry's
// load/activate/shadow admin API), /metrics (the registry's JSON
// snapshot), /healthz, and the standard pprof endpoints on an explicit
// mux (nothing else leaks in from http.DefaultServeMux).
func serveHandler(reg *soteria.Registry, mr *soteria.ModelRegistry) http.Handler {
	mux := http.NewServeMux()
	admin := mr.AdminHandler()
	mux.Handle("/models", admin)
	mux.Handle("/models/", admin)
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/analyze", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a raw SOTB binary", http.StatusMethodNotAllowed)
			return
		}
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxAnalyzeBody))
		if err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), status)
			return
		}
		var salt int64
		if q := r.URL.Query().Get("salt"); q != "" {
			if salt, err = strconv.ParseInt(q, 10, 64); err != nil {
				http.Error(w, "salt must be an integer", http.StatusBadRequest)
				return
			}
		}
		dec, err := mr.Submit(r.Context(), raw, salt)
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, soteria.ErrBadBinary) {
				status = http.StatusBadRequest
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(analyzeResponse{
			Adversarial: dec.Adversarial,
			RE:          dec.RE,
			Class:       dec.Class.String(),
		})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
