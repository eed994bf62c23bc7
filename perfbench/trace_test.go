package main

import (
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1, Request: 0},
		{Name: "isa.decode", Start: 10, End: 20, Parent: 0, Request: 0},
		{Name: "features.replay", Start: 30, End: 90, Parent: 0, Request: 0},
		{Name: "labeling.both", Start: 30, End: 50, Parent: 2, Request: 0},
		// Overlapping children are covered once: 55..70 and 60..80
		// cover 55..80.
		{Name: "walk.random_into", Start: 55, End: 70, Parent: 2, Request: 0},
		{Name: "ngram.add_trace", Start: 60, End: 80, Parent: 2, Request: 0},
		// A child reaching past its parent counts only inside it.
		{Name: "store.join", Start: 95, End: 120, Parent: 0, Request: 0},
	}
	want := []int64{100 - 10 - 60 - 5, 10, 60 - 20 - 25, 20, 15, 20, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestPerRequestSumsSelfTimeByLayer(t *testing.T) {
	spans := []span{
		{Name: "walk.reset", Start: 0, End: 1000, Parent: -1, Request: 1},
		{Name: "walk.random_into", Start: 1000, End: 4000, Parent: -1, Request: 1},
		{Name: "ngram.add_trace", Start: 0, End: 2000, Parent: -1, Request: 0},
		{Name: "ngram.merge", Start: 2000, End: 2500, Parent: -1, Request: 0},
		{Name: "autoenc.detect", Start: 0, End: 9000, Parent: -1, Request: -1, Batch: 4},
	}
	got := perRequest(spans, selfTimes(spans), 2)
	if w := got["walk.walks_us"]; w[0] != 0 || w[1] != 4 {
		t.Errorf("walk.walks_us = %v, want [0 4]", w)
	}
	if c := got["ngram.count_us"]; c[0] != 2.5 || c[1] != 0 {
		t.Errorf("ngram.count_us = %v, want [2.5 0]", c)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", 3)
	child := tr.beginCPU("features.extract", 3)
	tr.end(child)
	tr.end(root)
	next := tr.begin("request", 4)
	tr.end(next)
	if tr.spans[child].Parent != root || tr.spans[root].Parent != -1 || tr.spans[next].Parent != -1 {
		t.Errorf("parents = %d %d %d", tr.spans[root].Parent, tr.spans[child].Parent, tr.spans[next].Parent)
	}
	if s := tr.spans[child]; s.End < s.Start || s.CPU < 0 || s.Request != 3 {
		t.Errorf("bad child span %+v", s)
	}
}
