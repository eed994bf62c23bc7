package main

import (
	"math"
	"testing"

	"soteria"
)

func TestDecisionCheckCatchesPerturbedRE(t *testing.T) {
	in := &input{salt: 9, gea: true}
	want := &soteria.Decision{Adversarial: true, RE: 0.123456789, Class: soteria.Mirai}
	served := decision{Adversarial: true, RE: 0.123456789, Class: "Mirai"}

	r := newReport()
	r.compare(in, served, want)
	if len(r.mismatches) != 0 {
		t.Fatalf("identical decision flagged: %v", r.mismatches)
	}
	for name, got := range map[string]decision{
		"RE one ulp up": {Adversarial: true, RE: math.Nextafter(want.RE, 1), Class: "Mirai"},
		"verdict":       {Adversarial: false, RE: want.RE, Class: "Mirai"},
		"class":         {Adversarial: true, RE: want.RE, Class: "Gafgyt"},
	} {
		r := newReport()
		r.compare(in, got, want)
		if len(r.mismatches) != 1 || r.checked != 1 {
			t.Errorf("%s: %d mismatches in %d checks, want 1 in 1", name, len(r.mismatches), r.checked)
		}
	}
}

func TestCheckSubsetIncludesMerges(t *testing.T) {
	pool := make([]*input, 500)
	for i := range pool {
		pool[i] = &input{salt: int64(i), gea: i%geaEvery == geaEvery-1}
	}
	all := func(*input) bool { return true }
	a := checkSubset(5, pool, all)
	b := checkSubset(5, pool, all)
	merges := 0
	for i, in := range a {
		if in != b[i] {
			t.Fatal("subset differs for the same seed")
		}
		if in.gea {
			merges++
		}
	}
	if merges != checkMerges || len(a) != checkMerges+checkOthers {
		t.Errorf("subset has %d merges of %d inputs, want %d of %d", merges, len(a), checkMerges, checkMerges+checkOthers)
	}
	if got := checkSubset(5, pool, func(in *input) bool { return in.salt < 20 }); len(got) != 20 {
		t.Errorf("subset of 20 eligible inputs has %d", len(got))
	}
}
