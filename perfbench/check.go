package main

import (
	"fmt"
	"math"
	"math/rand"

	"soteria"
)

// Sizes of the decision-check subset: every run compares this many GEA
// merges and this many other distinct inputs with the reference.
const (
	checkMerges = 16
	checkOthers = 48
)

// checkSubset picks the seeded subset of inputs whose decisions a run
// verifies: up to checkMerges GEA merges and checkOthers other inputs,
// among those eligible.
func checkSubset(seed int64, pool []*input, eligible func(*input) bool) []*input {
	rng := rand.New(rand.NewSource(subSeed(seed, 99)))
	var out []*input
	merges, others := 0, 0
	for _, i := range rng.Perm(len(pool)) {
		in := pool[i]
		switch {
		case !eligible(in):
		case in.gea && merges < checkMerges:
			merges++
			out = append(out, in)
		case !in.gea && others < checkOthers:
			others++
			out = append(out, in)
		}
	}
	return out
}

// checkServed compares the served decisions of the checked subset —
// every response served for each checked input — with an in-process
// System.AnalyzeBinary on the same model and salt.
func checkServed(r *report, cfg config, distinct []*input, served map[*input][]decision) error {
	sys, err := loadReference(cfg.model)
	if err != nil {
		return err
	}
	subset := checkSubset(cfg.seed, distinct, func(in *input) bool { return len(served[in]) > 0 })
	for _, in := range subset {
		ref, err := sys.AnalyzeBinary(in.raw, in.salt)
		if err != nil {
			return fmt.Errorf("reference decision (salt %d): %w", in.salt, err)
		}
		for _, got := range served[in] {
			r.compare(in, got, ref)
		}
	}
	return nil
}

// compare records one served decision against its reference. RE must
// match bit for bit, so a response that rounded or perturbed the score
// in any digit is a mismatch.
func (r *report) compare(in *input, got decision, want *soteria.Decision) {
	r.checked++
	if got.same(decision{Adversarial: want.Adversarial, RE: want.RE, Class: want.Class.String()}) {
		return
	}
	r.mismatches = append(r.mismatches, fmt.Sprintf("salt %d (gea=%v): got {%v %v %s}, want {%v %v %s}",
		in.salt, in.gea, got.Adversarial, got.RE, got.Class, want.Adversarial, want.RE, want.Class))
}

// same reports whether two decisions are identical, RE bit for bit.
func (d decision) same(o decision) bool {
	return d.Adversarial == o.Adversarial && math.Float64bits(d.RE) == math.Float64bits(o.RE) && d.Class == o.Class
}
