package main

// workload is one traffic mix and the parameters that shape it. Every
// input comes from the run's --seed; the parameters are fixed so that
// two commits measured with the same seed see identical work.
type workload struct {
	name, why string
	// serve runs the mix against soteria processes; otherwise it is the
	// in-process scan.
	serve bool
	// fleet fronts the replicas with -fleet -replicas 2 instead of one
	// -serve process.
	fleet bool
	// rateA is phase A's open-loop arrival rate (requests/s); phase A
	// sends rateA × phaseAShare × --seconds requests.
	rateA float64
	// sizeB sizes phase B's closed-loop request set per second of
	// phase B, at about this workload's closed-loop throughput.
	sizeB float64
	// warm is the number of distinct (binary, salt) pairs offered once,
	// untimed, before the timed phases, so that the server's heap, pools
	// and cache are past their start-up growth; repeat is the share of
	// timed arrivals that repeat one of them.
	warm   int
	repeat float64
	// cacheMaxBytes is each replica's -cache-max-bytes (0: default).
	cacheMaxBytes int64
	// corpus is the scan's distinct-binary count.
	corpus int
}

// Shares of --seconds given to each serving phase.
const (
	phaseAShare = 5.0 / 6
	phaseBShare = 1.0 / 6
)

// setupRepeats is how many times a run measures set-up; setup_s is the
// median.
const setupRepeats = 3

// windows is how many consecutive slices each serving phase is cut
// into; latency and throughput pool the quiet ones (quietWindows).
const windows = 10

// traceMaxSamples bounds the traced replay to this many distinct inputs.
const traceMaxSamples = 1024

var workloads = []workload{
	{
		name: "serve-paper",
		why: "paper deployment: one soteria -serve, every request a fresh paper-mix binary and salt (all cache misses, 10% GEA merges); " +
			"the CFG-size tail puts labeling, walks and n-grams on the critical path",
		serve: true,
		rateA: 40,
		sizeB: 150,
		warm:  200,
	},
	{
		name: "fleet-repeat",
		why: "soteria -fleet -replicas 2 with 90% of arrivals repeating a warm hot set: hits skip extraction, leaving two HTTP hops, " +
			"parse/disassembly and the cache hit/fill/evict path",
		serve:         true,
		fleet:         true,
		rateA:         150,
		sizeB:         900,
		warm:          256,
		repeat:        0.9,
		cacheMaxBytes: 4 << 20,
	},
	{
		name: "scan-batch",
		why: "offline scan in one process: soteria.Load, then AnalyzeBinaryBatch over 4x512 distinct paper-mix binaries " +
			"through 512-sample chunks, par.Overlap and sharded GEMMs; no HTTP, Batcher or fleet",
		corpus: 4 * 512,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
	// moves names the end-to-end metric and workload a change in this
	// layer metric should show up in (per-layer metrics only).
	moves string
}

// endToEnd are the metrics of a --trace 0 run, measured on every
// workload with tracing off.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "p50_ms", unit: "ms", better: "lower"},
	{name: "analyses_per_s", unit: "1/s", better: "higher"},
	{name: "cpu_ms_per_analysis", unit: "ms", better: "lower"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
}

// perLayer are the metrics of a --trace 1 run: self time per sample (a
// median over the traced replay) at each layer's public entry point,
// and the counters the program itself exports.
var perLayer = []metricDef{
	{"isa.decode_us", "us", "lower", "p50_ms, cpu_ms_per_analysis on fleet-repeat"},
	{"disasm.disassemble_us", "us", "lower", "p50_ms, cpu_ms_per_analysis on fleet-repeat"},
	{"labeling.both_us", "us", "lower", "cpu_ms_per_analysis on serve-paper; analyses_per_s on scan-batch"},
	{"labeling.both_us.small", "us", "lower", "cpu_ms_per_analysis on serve-paper"},
	{"labeling.both_us.medium", "us", "lower", "cpu_ms_per_analysis on serve-paper"},
	{"labeling.both_us.large", "us", "lower", "cpu_ms_per_analysis and the phase A tail on serve-paper"},
	{"labeling.nodes_per_sample", "count", "lower", "workload property: CFG size behind labeling cost"},
	{"labeling.edges_per_sample", "count", "lower", "workload property: CFG size behind labeling cost"},
	{"walk.walks_us", "us", "lower", "cpu_ms_per_analysis on serve-paper and scan-batch"},
	{"walk.steps_per_sample", "count", "lower", "workload property: walk work per sample"},
	{"ngram.count_us", "us", "lower", "cpu_ms_per_analysis on serve-paper and scan-batch"},
	{"ngram.vectorize_us", "us", "lower", "cpu_ms_per_analysis on serve-paper and scan-batch"},
	{"ngram.grams_per_sample", "count", "lower", "workload property: n-gram work per sample"},
	{"features.extract_us", "us", "lower", "anchor: the four stages above sum to it"},
	{"autoenc.detect_us_per_sample.serve", "us", "lower", "p50_ms on serve-paper"},
	{"autoenc.detect_us_per_sample.b512", "us", "lower", "analyses_per_s on scan-batch"},
	{"cnn.vote_us_per_sample.serve", "us", "lower", "p50_ms on serve-paper"},
	{"cnn.vote_us_per_sample.b512", "us", "lower", "analyses_per_s on scan-batch"},
	{"store.join_hit_us", "us", "lower", "p50_ms on fleet-repeat"},
	{"par.overlap_ratio", "ratio", "higher", "analyses_per_s on scan-batch"},
	{"core.extract_ms_per_sample", "ms", "lower", "cpu_ms_per_analysis on serve-paper"},
	{"core.score_ms_per_sample", "ms", "lower", "cpu_ms_per_analysis on serve-paper"},
	{"store.hit_ratio", "ratio", "higher", "p50_ms on fleet-repeat"},
	{"store.evictions", "count", "lower", "p50_ms, peak_rss_mb on fleet-repeat"},
	{"store.bytes_mb", "MiB", "lower", "peak_rss_mb on fleet-repeat and serve-paper"},
}

// servingLayer are the serving-only counters: the Batcher exists only
// behind -serve and -fleet, the front door only behind -fleet. They are
// printed with every serving run and written to the trace file, but
// are not per-layer metrics of the benchmark, which every workload's
// traced run must report.
var servingLayer = []metricDef{
	{"core.batcher.wait_ms", "ms", "lower", "p50_ms on serve-paper"},
	{"core.batcher.batch_size", "count", "higher", "analyses_per_s on serve-paper"},
	{"core.batcher.timer_flush_share", "ratio", "lower", "p50_ms on serve-paper (each timer flush pays MaxWait)"},
	{"fleet.upstream_ms", "ms", "lower", "p50_ms on fleet-repeat"},
	{"fleet.retries", "count", "lower", "p50_ms, failed on fleet-repeat"},
	{"fleet.shed", "count", "lower", "failed on fleet-repeat"},
	{"fleet.errors", "count", "lower", "failed on fleet-repeat"},
}
