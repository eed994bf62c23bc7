package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	"soteria"
)

// servingInputs is a serving run's traffic: the untimed warm-up and the
// two timed phases, as request sequences over a pool of distinct
// inputs.
type servingInputs struct {
	distinct   []*input // every distinct (binary, salt) pair, in first-use order
	warm, a, b []*input
}

// subSeed derives an independent stream seed for one part of a run's
// inputs, so each part's inputs are fixed by --seed alone.
func subSeed(seed int64, part int64) int64 { return seed*1_000_003 + part }

// makeServingInputs builds a serving workload's traffic from the seed.
// The warm-up offers w.warm distinct inputs once. Without repeats every
// timed request is a fresh input with its own salt; with them, the
// fresh inputs take evenly spaced arrivals (the 1−repeat share) in
// their paper-mix order and the other arrivals walk through seeded
// permutations of the warm-up set, so every warm pair is repeated as
// often as any other (to within one) and the repeats carry the warm-up
// set's size mix.
func makeServingInputs(w workload, seed int64, seconds float64) (*servingInputs, error) {
	nA := int(w.rateA*phaseAShare*seconds + 0.5)
	nB := int(w.sizeB*phaseBShare*seconds + 0.5)
	s := &servingInputs{}
	warm, err := paperMix(subSeed(seed, 0), w.warm, 1)
	if err != nil {
		return nil, err
	}
	s.warm = pointers(warm)
	s.distinct = append(s.distinct, s.warm...)
	salt := int64(w.warm + 1)
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	var order []int // the rest of the current permutation of the warm set
	nextWarm := func() *input {
		if len(order) == 0 {
			order = rng.Perm(len(s.warm))
		}
		in := s.warm[order[0]]
		order = order[1:]
		return in
	}
	phase := func(part int64, n int) ([]*input, error) {
		fresh := int(float64(n)*(1-w.repeat) + 0.5)
		ins, err := paperMix(subSeed(seed, part), fresh, salt)
		if err != nil {
			return nil, err
		}
		salt += int64(fresh)
		freshReqs := pointers(ins)
		s.distinct = append(s.distinct, freshReqs...)
		if fresh == n {
			return freshReqs, nil
		}
		reqs := make([]*input, n)
		for i := range reqs {
			// Arrival i is the next fresh input when the running count
			// of fresh arrivals steps up, which spreads them evenly.
			if j := (i + 1) * fresh / n; j > i*fresh/n {
				reqs[i] = freshReqs[j-1]
			} else {
				reqs[i] = nextWarm()
			}
		}
		return reqs, nil
	}
	if s.a, err = phase(2, nA); err != nil {
		return nil, err
	}
	if s.b, err = phase(3, nB); err != nil {
		return nil, err
	}
	return s, nil
}

// succeeded counts the successful outcomes.
func succeeded(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.ok() {
			n++
		}
	}
	return n
}

func pointers(ins []input) []*input {
	out := make([]*input, len(ins))
	for i := range ins {
		out[i] = &ins[i]
	}
	return out
}

// runServing measures one serving workload against fresh soteria
// processes on ephemeral ports.
func runServing(cfg config) (*report, error) {
	w := cfg.w
	ins, err := makeServingInputs(w, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	args := []string{"-load", cfg.model, "-serve", "127.0.0.1:0"}
	if w.fleet {
		args = []string{"-load", cfg.model, "-fleet", "127.0.0.1:0", "-replicas", "2"}
	}
	if w.cacheMaxBytes > 0 {
		args = append(args, "-cache-max-bytes", strconv.FormatInt(w.cacheMaxBytes, 10))
	}
	r := newReport()
	srv, setups, err := startMeasured(cfg.bin, args)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	r.e2e["setup_s"] = median(setups)
	r.note("set-up seconds per start: %v", setups)
	if hwm, err := peakRSSMiB(srv.pid()); err == nil {
		r.note("server VmHWM after set-up: %.1f MiB", hwm)
	}

	conns := runtime.NumCPU()
	client := newClient(conns)
	served := map[*input][]decision{}
	record := func(name string, reqs []*input, outs []outcome) {
		p := phase{name: name, attempted: len(outs)}
		for i, o := range outs {
			if o.ok() {
				p.succeeded++
				served[reqs[i]] = append(served[reqs[i]], o.dec)
			} else {
				p.failed++
				r.note("%s request %d failed: status %d: %v", name, i, o.status, o.err)
			}
		}
		r.phases = append(r.phases, p)
	}

	if len(ins.warm) > 0 {
		outs, _ := closedLoop(client, srv.url, ins.warm, conns)
		record("warm-up", ins.warm, outs)
	}

	// Phase A: the open loop, cut into windows. Latency comes from the
	// requests of the quiet windows (see quietWindows), pooled; server
	// CPU per analysis from the whole phase.
	cpu := make([]time.Duration, windows+1)
	hostA := make([]hostCPU, windows+1)
	var markErr error
	outsA := openLoop(client, srv.url, ins.a, w.rateA, conns, windows, func(k int) {
		var err error
		if hostA[k], err = readHostCPU(); err == nil {
			cpu[k], err = procCPU(srv.pid())
		}
		if err != nil {
			markErr = err
		}
	})
	if markErr != nil {
		return nil, markErr
	}
	record("A", ins.a, outsA)
	stealA := make([]float64, windows)
	for k := range stealA {
		stealA[k] = stealShare(hostA[k], hostA[k+1])
	}
	quietA := quietWindows(stealA)
	var pooled []outcome
	for _, k := range quietA {
		pooled = append(pooled, outsA[windowStart(k, windows, len(outsA)):windowStart(k+1, windows, len(outsA))]...)
	}
	quiet, whole := summarize(pooled), summarize(outsA)
	r.e2e["p50_ms"] = quiet.p50
	r.e2e["cpu_ms_per_analysis"] = ms(cpu[windows]-cpu[0]) / float64(max(succeeded(outsA), 1))
	r.note("phase A: %d requests at %.0f/s over %d connections in %d windows; steal per window %.4f; quiet windows %v (%d requests): p50 %.3f p90 %.3f ms",
		len(outsA), w.rateA, conns, windows, stealA, quietA, len(pooled), quiet.p50, quiet.p90)
	r.note("phase A whole: latency p50 %.3f p90 %.3f p99 %.3f ms (%d above p99); generator lateness p99 %.3f ms, max %.3f ms",
		whole.p50, whole.p90, whole.p99, whole.beyondP99, whole.lateP99, whole.lateMax)

	// Phase B: the closed loop over consecutive slices of its request
	// set; analyses_per_s pools the quiet slices.
	var outsB []outcome
	oks := make([]int, windows)
	walls := make([]float64, windows)
	stealB := make([]float64, windows)
	for k := range walls {
		part := ins.b[windowStart(k, windows, len(ins.b)):windowStart(k+1, windows, len(ins.b))]
		h0, err := readHostCPU()
		if err != nil {
			return nil, err
		}
		outs, wall := closedLoop(client, srv.url, part, conns)
		h1, err := readHostCPU()
		if err != nil {
			return nil, err
		}
		outsB = append(outsB, outs...)
		oks[k], walls[k], stealB[k] = succeeded(outs), wall.Seconds(), stealShare(h0, h1)
	}
	record("B", ins.b, outsB)
	quietB := quietWindows(stealB)
	var done int
	var busy float64
	for _, k := range quietB {
		done += oks[k]
		busy += walls[k]
	}
	r.e2e["analyses_per_s"] = float64(done) / busy
	r.note("phase B: %d requests from %d closed-loop clients in %d slices; steal per slice %.4f; quiet slices %v: %d analyses in %.3f s",
		len(outsB), conns, windows, stealB, quietB, done, busy)

	if r.e2e["peak_rss_mb"], err = peakRSSMiB(srv.pid()); err != nil {
		return nil, err
	}
	if err := readServerCounters(r, srv); err != nil {
		return nil, err
	}
	srv.stop()
	client.CloseIdleConnections()

	if err := checkServed(r, cfg, ins.distinct, served); err != nil {
		return nil, err
	}
	r.inputs = ins.distinct
	return r, nil
}

// startMeasured starts the server setupRepeats times, one at a time,
// and keeps the last one running. It returns that server and each
// start's set-up time in seconds.
func startMeasured(bin string, args []string) (*server, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		s, err := startServer(bin, args...)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if i == setupRepeats-1 {
			return s, setups, nil
		}
		s.stop()
	}
}

// readServerCounters reads the program's own serve-mode counters at the
// end of the run: from the one -serve process, or summed over the
// fleet's replicas plus the front door's fleet.* registry.
func readServerCounters(r *report, srv *server) error {
	front, err := scrape(srv.url)
	if err != nil {
		return err
	}
	replicas := []metricSnapshot{front}
	if len(srv.replicas) > 0 {
		replicas = replicas[:0]
		for _, u := range srv.replicas {
			m, err := scrape(u)
			if err != nil {
				return err
			}
			replicas = append(replicas, m)
		}
	}
	var c counters
	for _, m := range replicas {
		c.add(m)
	}
	c.set(r.layer, r.serving)
	if len(srv.replicas) > 0 {
		n, sum := front.hist("fleet.latency_ns")
		r.serving["fleet.upstream_ms"] = sum / max(n, 1) / 1e6
		r.serving["fleet.retries"] = front.num("fleet.retries")
		r.serving["fleet.shed"] = front.num("fleet.shed")
		r.serving["fleet.errors"] = front.num("fleet.errors")
	}
	return nil
}

// counters sums the pipeline, batcher and cache counters of one or more
// registries.
type counters struct {
	extractNs, scoreNs, samples      float64
	waitN, waitNs, batches, batchSum float64
	flushTimer, flushAll             float64
	hits, misses, evicts, cacheBytes float64
}

func (c *counters) add(m metricSnapshot) {
	_, ex := m.hist("pipeline.extract_ns")
	_, sc := m.hist("pipeline.score_ns")
	c.extractNs += ex
	c.scoreNs += sc
	c.samples += m.num("pipeline.samples")
	n, s := m.hist("batcher.wait_ns")
	c.waitN += n
	c.waitNs += s
	n, s = m.hist("batcher.batch_size")
	c.batches += n
	c.batchSum += s
	c.flushTimer += m.num("batcher.flush_timer")
	c.flushAll += m.num("batcher.flush_timer") + m.num("batcher.flush_full") + m.num("batcher.flush_close")
	c.hits += m.num("cache.hit")
	c.misses += m.num("cache.miss")
	c.evicts += m.num("cache.evict")
	c.cacheBytes += m.num("cache.bytes")
}

// set writes the per-layer metrics the counters give, and the
// serving-only Batcher rows when a Batcher ran.
func (c *counters) set(layer, serving map[string]float64) {
	samples := max(c.samples, 1)
	layer["core.extract_ms_per_sample"] = c.extractNs / samples / 1e6
	layer["core.score_ms_per_sample"] = c.scoreNs / samples / 1e6
	layer["store.hit_ratio"] = c.hits / max(c.hits+c.misses, 1)
	layer["store.evictions"] = c.evicts
	layer["store.bytes_mb"] = c.cacheBytes / (1 << 20)
	if c.batches > 0 {
		serving["core.batcher.wait_ms"] = c.waitNs / max(c.waitN, 1) / 1e6
		serving["core.batcher.batch_size"] = c.batchSum / c.batches
		serving["core.batcher.timer_flush_share"] = c.flushTimer / max(c.flushAll, 1)
	}
}

// loadReference loads the model under test into this process: the
// reference decisions come from the same bytes the servers load.
func loadReference(model string) (*soteria.System, error) {
	f, err := os.Open(model)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sys, err := soteria.Load(f)
	if err != nil {
		return nil, fmt.Errorf("model %s: %w", model, err)
	}
	return sys, nil
}
