package main

import (
	"errors"
	"math"
	"net/http"
	"slices"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(append([]float64(nil), xs...), c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestSummarizeTimesFromSchedule(t *testing.T) {
	outs := make([]outcome, 100)
	for i := range outs {
		due := time.Duration(i) * 10 * time.Millisecond
		outs[i] = outcome{due: due, sent: due, done: due + time.Duration(i+1)*time.Millisecond, status: http.StatusOK}
	}
	// The last request was dispatched 30 ms late; its latency still
	// runs from its due time.
	outs[99].sent += 30 * time.Millisecond
	outs[99].done = outs[99].sent + time.Millisecond
	// Latencies are 1..99 ms plus 31 ms for the late request.
	s := summarize(outs)
	if s.p50 != 49.5 {
		t.Errorf("p50 = %v, want 49.5", s.p50)
	}
	if math.Abs(s.p99-98.01) > 1e-9 {
		t.Errorf("p99 = %v, want 98.01", s.p99)
	}
	if s.lateMax != 30 || math.Abs(s.lateP99-0.3) > 1e-9 {
		t.Errorf("lateness p99 %v max %v, want 0.3 and 30", s.lateP99, s.lateMax)
	}
	if s.beyondP99 != 1 {
		t.Errorf("%d latencies above p99, want 1", s.beyondP99)
	}
}

func TestSummarizeCountsFailuresBeyondAnyLimit(t *testing.T) {
	outs := make([]outcome, 100)
	for i := range outs {
		outs[i] = outcome{done: time.Millisecond, status: http.StatusOK}
	}
	outs[3].status = http.StatusServiceUnavailable
	outs[7].err = errors.New("connection refused")
	s := summarize(outs)
	if s.p50 != 1 {
		t.Errorf("p50 = %v, want 1", s.p50)
	}
	if !math.IsInf(s.p99, 1) {
		t.Errorf("p99 = %v with 2%% failed, want +Inf", s.p99)
	}
}

func TestWindowStartCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{3, 5, 17, 500} {
		seen := 0
		for k := 0; k < windows; k++ {
			lo, hi := windowStart(k, windows, n), windowStart(k+1, windows, n)
			if hi < lo {
				t.Fatalf("n=%d: window %d runs backwards", n, k)
			}
			seen += hi - lo
		}
		if seen != n || windowStart(windows, windows, n) != n {
			t.Errorf("n=%d: windows cover %d indices", n, seen)
		}
	}
}

func TestQuietWindows(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0, 0, 0, 0}, []int{0, 1, 2, 3}},
		{[]float64{0.01, 0.2, 0.012, 0.1, 0.014, 0.05}, []int{0, 2, 4}},
		// Fewer than half within the slack: the least-stolen half.
		{[]float64{0.4, 0.1, 0.3, 0.2, 0.5}, []int{1, 2, 3}},
		{[]float64{0.03, 0.001, 0.0, 0.004, 0.02}, []int{1, 2, 3}},
	} {
		if got := quietWindows(c.steal); !slices.Equal(got, c.want) {
			t.Errorf("quietWindows(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}
