package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks of the sorted samples (NumPy's default). xs is
// sorted in place. A failed request enters as +Inf, so a quantile that
// reaches into the failures is +Inf: beyond any limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 || xs[lo] == xs[lo+1] {
		return xs[lo] // also keeps +Inf from becoming Inf-Inf = NaN
	}
	return xs[lo] + (xs[lo+1]-xs[lo])*frac
}

// median is quantile(xs, 0.5) on a copy, leaving xs unsorted.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencySummary is an open-loop phase's latency and generator
// lateness, in milliseconds.
type latencySummary struct {
	p50, p90, p99    float64 // from scheduled send to full response
	lateP99, lateMax float64 // how late the generator dispatched
	beyondP99        int     // latencies above p99
}

// summarize computes exact quantiles over every attempted request of an
// open-loop phase: latency from each request's scheduled send time
// (+Inf for a failed request) and dispatch lateness.
func summarize(outs []outcome) latencySummary {
	lat := make([]float64, len(outs))
	late := make([]float64, len(outs))
	for i, o := range outs {
		lat[i] = math.Inf(1)
		if o.ok() {
			lat[i] = ms(o.done - o.due)
		}
		late[i] = ms(o.sent - o.due)
	}
	var s latencySummary
	s.p50 = quantile(lat, 0.50)
	s.p90 = quantile(lat, 0.90)
	s.p99 = quantile(lat, 0.99)
	for _, v := range lat {
		if v > s.p99 {
			s.beyondP99++
		}
	}
	s.lateP99 = quantile(late, 0.99)
	s.lateMax = late[len(late)-1]
	return s
}

// stealSlack is how much more host steal than the least-stolen window a
// window may show and still count as quiet.
const stealSlack = 0.005

// quietWindows returns, in order, the windows whose host steal share is
// within stealSlack of the least-stolen one's, and at least the half of
// them with the least steal. While the hypervisor runs other guests on
// this machine's cores, every wake-up of the server and the load
// generator waits for a core, so a stolen window measures the host
// rather than the program; with no steal, every window is quiet.
func quietWindows(steal []float64) []int {
	order := make([]int, len(steal))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
	n := (len(order) + 1) / 2
	for n < len(order) && steal[order[n]] <= steal[order[0]]+stealSlack {
		n++
	}
	keep := order[:n]
	sort.Ints(keep)
	return keep
}
