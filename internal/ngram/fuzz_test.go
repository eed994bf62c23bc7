package ngram

import "testing"

// FuzzPackRoundTrip checks the packed-key layout: any gram within the
// documented bounds (length in [1, MaxPackedN], labels in
// [0, MaxPackedLabel]) must survive Pack → Unpack unchanged, and the
// packed key's string rendering must match the legacy Key form and
// parse back to the same labels.
func FuzzPackRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint32(0), uint32(0), uint32(0), uint32(0))
	f.Add(uint8(4), uint32(MaxPackedLabel), uint32(MaxPackedLabel), uint32(MaxPackedLabel), uint32(MaxPackedLabel))
	f.Add(uint8(3), uint32(1), uint32(2), uint32(3), uint32(0))
	f.Add(uint8(2), uint32(32767), uint32(12345), uint32(0), uint32(0))

	f.Fuzz(func(t *testing.T, n uint8, l0, l1, l2, l3 uint32) {
		gram := []int{
			int(l0) & MaxPackedLabel,
			int(l1) & MaxPackedLabel,
			int(l2) & MaxPackedLabel,
			int(l3) & MaxPackedLabel,
		}[:1+int(n)%MaxPackedN]

		key := Pack(gram)
		got := Unpack(key, nil)
		if len(got) != len(gram) {
			t.Fatalf("Unpack(Pack(%v)) = %v: length changed", gram, got)
		}
		for i := range gram {
			if got[i] != gram[i] {
				t.Fatalf("Unpack(Pack(%v)) = %v", gram, got)
			}
		}

		s := KeyString(key)
		if legacy := Key(gram); s != legacy {
			t.Fatalf("KeyString(Pack(%v)) = %q, legacy Key = %q", gram, s, legacy)
		}
		parsed, err := ParseKey(s)
		if err != nil {
			t.Fatalf("ParseKey(%q) failed: %v", s, err)
		}
		if Pack(parsed) != key {
			t.Fatalf("ParseKey(%q) = %v does not re-pack to %#x", s, parsed, key)
		}
	})
}

// FuzzParseKey hardens the vocabulary-file parser: arbitrary strings
// must either produce a non-negative label slice that canonically
// round-trips through Key, or return an error — never panic.
func FuzzParseKey(f *testing.F) {
	f.Add("1|2|3")
	f.Add("0")
	f.Add("")
	f.Add("|")
	f.Add("-1|2")
	f.Add("a|b")
	f.Add("99999999999999999999")
	f.Add("1|2|3|4|5|6|7|8")

	f.Fuzz(func(t *testing.T, s string) {
		labels, err := ParseKey(s)
		if err != nil {
			return
		}
		if len(labels) == 0 {
			t.Fatalf("ParseKey(%q) returned no labels and no error", s)
		}
		for _, l := range labels {
			if l < 0 {
				t.Fatalf("ParseKey(%q) accepted negative label %d", s, l)
			}
		}
		// The canonical rendering of an accepted key must parse back to
		// the same labels.
		re, err := ParseKey(Key(labels))
		if err != nil {
			t.Fatalf("canonical form of %q failed to re-parse: %v", s, err)
		}
		if len(re) != len(labels) {
			t.Fatalf("round trip changed length: %v vs %v", re, labels)
		}
		for i := range labels {
			if re[i] != labels[i] {
				t.Fatalf("round trip changed labels: %v vs %v", re, labels)
			}
		}
	})
}

// FuzzSlotCounts checks slot counting against the string-keyed oracle
// (and AddTrace, where it is defined) on arbitrary traces and lengths:
// slot counts, total and vector must match bit for bit. Bytes 248–255
// become labels MaxPackedLabel−3 … MaxPackedLabel+4, so traces cross
// the largest packable label; the vocabulary holds grams on both sides
// of small labels and up to MaxPackedLabel.
func FuzzSlotCounts(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 2, 3, 0, 1}, int8(2), int8(3), int8(4))
	f.Add([]byte{0, 1, 255, 1, 2, 251, 0, 1}, int8(1), int8(2), int8(2))
	f.Add([]byte{}, int8(2), int8(0), int8(-1))
	f.Add([]byte{5}, int8(5), int8(4), int8(1))
	f.Add([]byte{248, 249, 250, 251, 252, 253, 254, 255, 0, 0, 0}, int8(4), int8(3), int8(2))
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3}, int8(127), int8(-128), int8(3))

	label := func(b byte) int {
		if b >= 248 {
			return MaxPackedLabel - 3 + int(b-248)
		}
		return int(b % 8)
	}
	var fit []int
	for i := 0; i < 300; i++ {
		fit = append(fit, label(byte(i*37%256)))
	}
	v := Fit([]map[string]int{Grams(fit, []int{1, 2, 3, 4})}, 24)
	if !v.PackedReady() {
		f.Fatal("fuzz vocabulary must pack")
	}

	f.Fuzz(func(t *testing.T, data []byte, n0, n1, n2 int8) {
		if len(data) > 512 {
			data = data[:512]
		}
		trace := make([]int, len(data))
		for i, b := range data {
			trace[i] = label(b)
		}
		checkSlots(t, v, trace, []int{int(n0), int(n1), int(n2)})
	})
}
