package kmer

import "testing"

// FuzzScan64 checks the one enumerator on arbitrary byte sequences and
// every k in 1..63: it never panics, each window it yields is in range and
// all ACGT, each key equals CanonicalKey of its window, and it yields
// exactly the windows CanonicalKey accepts.
func FuzzScan64(f *testing.F) {
	f.Add([]byte("ACGTACGTNNNACGT"), 5)
	f.Add([]byte(""), 3)
	f.Add([]byte("acgtACGT"), 31)
	f.Add([]byte("ACGTTGCAACGTTGCAACGTTGCAACGTTGCAACGTTGCAN"), 32)
	f.Add([]byte("acgtacgtacgtacgtacgtacgtacgtacgtacgtacgtacgtacgtacgtacgtacgtacgtA"), 63)
	f.Fuzz(func(t *testing.T, seq []byte, k int) {
		if k < 1 || k > MaxK128 {
			return
		}
		next := 0 // every window before next was checked or must be rejected
		ForEachKey(seq, k, func(pos int, km Kmer128) {
			if pos < next || pos+k > len(seq) {
				t.Fatalf("window [%d,%d) out of order or range", pos, pos+k)
			}
			for ; next < pos; next++ {
				if _, ok := CanonicalKey(seq[next:next+k], k); ok {
					t.Fatalf("k=%d: window %d is all ACGT but was skipped", k, next)
				}
			}
			next = pos + 1
			ref, ok := CanonicalKey(seq[pos:pos+k], k)
			if !ok {
				t.Fatalf("k=%d: enumerator yielded window %d with invalid bases", k, pos)
			}
			if !ref.Equal(km) {
				t.Fatalf("k=%d window %d: enumerator %+v, CanonicalKey %+v", k, pos, km, ref)
			}
			if k <= MaxK64 && km.Hi != 0 {
				t.Fatalf("k=%d window %d: Hi = %#x, want 0", k, pos, km.Hi)
			}
		})
		for ; next+k <= len(seq); next++ {
			if _, ok := CanonicalKey(seq[next:next+k], k); ok {
				t.Fatalf("k=%d: window %d is all ACGT but was skipped", k, next)
			}
		}
	})
}
