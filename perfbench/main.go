// Command perfbench is the repository's end-to-end benchmark. From the
// root of a checkout,
//
//	bash perfbench/run.sh --workload serve-paper --seed 1 --seconds 30 --trace 0
//
// builds cmd/soteria and this program from the checkout, trains one
// fixed-seed model, and measures one workload (see workloads.go) against
// the real `soteria -serve` / `-fleet` processes or, for scan-batch, the
// public soteria facade in a child process. Every input comes from
// --seed. Served decisions are checked bit for bit against an
// in-process reference. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}, where metrics
// holds the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1.
//
// --trace 1 runs the same untraced workload (for the program's own
// counters) and then replays its inputs in-process, one call at a time,
// with a span around each layer's public entry point. Spans and the
// per-layer report go to .bench_build/trace-<workload>-<seed>.json.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// modelSeed is the fixed training seed; --seed only shapes traffic.
const modelSeed = 1

// config is one invocation's settings.
type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	bin     string // soteria binary under test
	work    string // scratch directory inside the checkout
	model   string // trained model file
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "traffic seed: every input of the run derives from it")
	seconds := fs.Int("seconds", 30, "how long the run measures")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced replay")
	bin := fs.String("bin", ".bench_build/soteria", "soteria binary under test")
	work := fs.String("work", ".bench_build", "directory for the model, corpus and trace files")
	scanCorpus := fs.String("scan-worker", "", "internal: run the scan-batch measurement over this corpus file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scanCorpus != "" {
		return scanWorker(*scanCorpus, *seconds, stdout)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	cfg := config{w: w, seed: *seed, seconds: float64(*seconds), trace: *trace == 1, bin: *bin, work: *work}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	build, err := fileDigest(cfg.bin)
	if err != nil {
		return fmt.Errorf("soteria binary: %w", err)
	}
	printEnv(stdout, build)
	if cfg.model, err = ensureModel(cfg.bin, cfg.work, build); err != nil {
		return err
	}

	host0, err := readHostCPU()
	if err != nil {
		return err
	}
	var r *report
	if w.serve {
		r, err = runServing(cfg)
	} else {
		r, err = runScan(cfg)
	}
	if err != nil {
		return err
	}
	host1, err := readHostCPU()
	if err != nil {
		return err
	}
	r.note("host steal share over the run: %.4f", stealShare(host0, host1))

	metrics := r.e2e
	defs := endToEnd
	if cfg.trace {
		if err := runTrace(cfg, r); err != nil {
			return err
		}
		metrics, defs = r.layer, perLayer
	}
	return r.write(stdout, metrics, defs)
}

// report collects one run's results.
type report struct {
	phases     []phase
	e2e        map[string]float64
	layer      map[string]float64 // per-layer metrics
	serving    map[string]float64 // servingLayer counters
	inputs     []*input           // distinct inputs, in first-use order
	checked    int                // decisions compared with the reference
	mismatches []string
	notes      []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, serving: map[string]float64{}}
}

// phase is one phase's request accounting.
type phase struct {
	name                         string
	attempted, succeeded, failed int
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// write prints the human-readable report, then the result line.
func (r *report) write(w io.Writer, metrics map[string]float64, defs []metricDef) error {
	attempted, failed := 0, 0
	for _, p := range r.phases {
		fmt.Fprintf(w, "phase %-8s attempted %6d  succeeded %6d  failed %d\n", p.name, p.attempted, p.succeeded, p.failed)
		attempted += p.attempted
		failed += p.failed
	}
	fmt.Fprintf(w, "fail_ratio %.6f (%d of %d attempted)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, d := range servingLayer {
		if v, ok := r.serving[d.name]; ok {
			fmt.Fprintf(w, "serving %-34s %14.6f %s\n", d.name, v, d.unit)
		}
	}
	fmt.Fprintf(w, "decision check: %d compared, %d mismatched\n", r.checked, len(r.mismatches))
	for _, m := range r.mismatches {
		fmt.Fprintln(w, "  mismatch:", m)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.checked > 0 && len(r.mismatches) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "metric %-34s %14.6f %s\n", d.name, v, d.unit)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// A quantile that reaches into failed requests is beyond any
			// limit; JSON has no infinity, so report the largest number.
			v = math.MaxFloat64
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printEnv records the run environment next to every run's metrics.
func printEnv(w io.Writer, build string) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	// Only a checkout's own .git is consulted: git would otherwise walk
	// up into whatever repository encloses the directory.
	commit := "none (not a git checkout)"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	fmt.Fprintf(w, "env nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s soteria_sha256=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version(), commit, build)
}

// fileDigest returns a file's SHA-256 in hex.
func fileDigest(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ensureModel returns the model trained by this soteria binary with
// DefaultOptions and modelSeed, training it on first use. Training is
// deterministic, so the model is kept per binary digest: every run of a
// checkout after the first loads the same bytes it would retrain.
func ensureModel(bin, work, build string) (string, error) {
	path := filepath.Join(work, "model-"+build[:16]+".json")
	if _, err := os.Stat(path); err == nil {
		return path, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return "", err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-seed", fmt.Sprint(modelSeed), "-save", tmp)
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("training: %w\n%s", err, stderr.String())
	}
	fmt.Fprintf(os.Stderr, "perfbench: trained %s in %v\n", path, time.Since(start).Round(time.Second))
	return path, os.Rename(tmp, path)
}
