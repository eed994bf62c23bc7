package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"soteria"
)

// scanJob is what the parent hands the scan child: the model file and
// the corpus.
type scanJob struct {
	Model string
	Raws  [][]byte
	Salts []int64
}

// scanResult is the scan child's report.
type scanResult struct {
	Setups    []float64 // seconds per soteria.Load
	CallsMs   []float64 // wall time of each AnalyzeBinaryBatch call
	Samples   int       // samples per call
	CPUMs     float64   // process user+system CPU over the calls
	PeakRSS   float64   // VmHWM at the end, MiB
	Decisions []decision
	// Unstable counts samples whose decision differed between calls.
	Unstable int
	Counters metricSnapshot
}

// runScan measures scan-batch: the parent generates the corpus, and a
// child process (this binary in -scan-worker mode) loads the model and
// scans, so its CPU time and peak RSS are the scan's alone.
func runScan(cfg config) (*report, error) {
	corpus, err := paperMix(subSeed(cfg.seed, 4), cfg.w.corpus, 1)
	if err != nil {
		return nil, err
	}
	job := scanJob{Model: cfg.model}
	for i := range corpus {
		job.Raws = append(job.Raws, corpus[i].raw)
		job.Salts = append(job.Salts, corpus[i].salt)
	}
	path := filepath.Join(cfg.work, fmt.Sprintf("scan-corpus-%d.gob", os.Getpid()))
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(job); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	defer os.Remove(path)

	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-scan-worker", path, "-seconds", fmt.Sprint(cfg.seconds))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("scan worker: %w", err)
	}
	var res scanResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("scan worker output: %w", err)
	}

	r := newReport()
	r.inputs = pointers(corpus)
	calls := len(res.CallsMs)
	total := 0.0
	for _, c := range res.CallsMs {
		total += c
	}
	r.phases = append(r.phases, phase{name: "scan", attempted: calls * res.Samples, succeeded: calls * res.Samples})
	r.e2e["setup_s"] = median(res.Setups)
	r.e2e["p50_ms"] = quantile(append([]float64(nil), res.CallsMs...), 0.50)
	r.e2e["analyses_per_s"] = float64(calls*res.Samples) / (total / 1e3)
	r.e2e["cpu_ms_per_analysis"] = res.CPUMs / float64(calls*res.Samples)
	r.e2e["peak_rss_mb"] = res.PeakRSS
	r.note("set-up seconds per soteria.Load: %v", res.Setups)
	r.note("scan: %d AnalyzeBinaryBatch calls of %d binaries; call wall ms %v", calls, res.Samples, res.CallsMs)

	var c counters
	c.add(res.Counters)
	c.set(r.layer, r.serving)
	r.layer["par.overlap_ratio"] = (c.extractNs + c.scoreNs) / (total * 1e6)
	if res.Unstable > 0 {
		r.mismatches = append(r.mismatches, fmt.Sprintf("%d samples changed decision between scan calls", res.Unstable))
	}
	return r, checkScan(r, cfg, corpus, res.Decisions)
}

// checkScan compares the scan's decisions for the checked subset with
// per-sample System.Analyze on the same model and salt.
func checkScan(r *report, cfg config, corpus []input, got []decision) error {
	if len(got) != len(corpus) {
		return fmt.Errorf("scan returned %d decisions for %d binaries", len(got), len(corpus))
	}
	sys, err := loadReference(cfg.model)
	if err != nil {
		return err
	}
	index := map[*input]int{}
	for i := range corpus {
		index[&corpus[i]] = i
	}
	for _, in := range checkSubset(cfg.seed, r.inputs, func(*input) bool { return true }) {
		bin, err := soteria.ParseBinary(in.raw)
		if err != nil {
			return err
		}
		g, err := soteria.Disassemble(bin)
		if err != nil {
			return err
		}
		ref, err := sys.Analyze(g, in.salt)
		if err != nil {
			return err
		}
		r.compare(in, got[index[in]], ref)
	}
	return nil
}

// scanWorker is the scan child: it loads the model setupRepeats times
// (set-up), then calls AnalyzeBinaryBatch over the whole corpus, each
// call with a fresh in-memory cache attached as file mode does, until
// the run's seconds are spent. It prints one scanResult as JSON.
func scanWorker(path string, seconds int, stdout io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var job scanJob
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&job); err != nil {
		return err
	}
	res := scanResult{Samples: len(job.Raws)}
	var sys *soteria.System
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if sys, err = loadReference(job.Model); err != nil {
			return err
		}
		res.Setups = append(res.Setups, time.Since(start).Seconds())
	}
	// One untimed call over the first chunk's worth of binaries grows
	// the heap and fills the pools, so the timed calls all start warm.
	// It runs before instrumentation, so the counters cover timed calls
	// only.
	warm := min(len(job.Raws), 512)
	if _, _, err := scanOnce(sys, nil, job.Raws[:warm], job.Salts[:warm]); err != nil {
		return err
	}
	reg := soteria.NewRegistry()
	sys.Instrument(reg)
	cpu0, err := selfCPU()
	if err != nil {
		return err
	}
	start := time.Now()
	// Calls continue while another one still fits in the run's seconds.
	for len(res.CallsMs) == 0 || time.Since(start).Seconds()+res.CallsMs[len(res.CallsMs)-1]/1e3 <= float64(seconds) {
		decs, wall, err := scanOnce(sys, reg, job.Raws, job.Salts)
		if err != nil {
			return err
		}
		res.CallsMs = append(res.CallsMs, ms(wall))
		for i, d := range decs {
			got := decision{Adversarial: d.Adversarial, RE: d.RE, Class: d.Class.String()}
			if len(res.CallsMs) == 1 {
				res.Decisions = append(res.Decisions, got)
			} else if !got.same(res.Decisions[i]) {
				res.Unstable++
			}
		}
	}
	cpu1, err := selfCPU()
	if err != nil {
		return err
	}
	res.CPUMs = ms(cpu1 - cpu0)
	if res.PeakRSS, err = peakRSSMiB(os.Getpid()); err != nil {
		return err
	}
	if res.Counters, err = snapshotOf(reg); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// scanOnce runs one AnalyzeBinaryBatch call with a fresh in-memory
// cache attached, as file mode does, and returns its decisions and wall
// time.
func scanOnce(sys *soteria.System, reg *soteria.Registry, raws [][]byte, salts []int64) ([]*soteria.Decision, time.Duration, error) {
	cache, err := soteria.OpenCache(soteria.CacheConfig{Obs: reg})
	if err != nil {
		return nil, 0, err
	}
	if err := sys.AttachCache(cache); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	decs, err := sys.AnalyzeBinaryBatch(raws, salts)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if err := sys.AttachCache(nil); err != nil {
		return nil, 0, err
	}
	return decs, wall, cache.Close()
}

// selfCPU returns this process's user+system CPU time, at the
// kernel's microsecond resolution.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
