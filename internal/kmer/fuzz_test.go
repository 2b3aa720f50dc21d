package kmer

import (
	"bytes"
	"testing"
)

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

// FuzzKeyBlock checks the block rolls on arbitrary byte sequences: Next64
// for every k ≤ 31 and Next128 for every k in 1..63 yield exactly the
// windows CanonicalKey accepts, in order and with equal keys; a block holds
// at most BlockKeys consecutive windows, and one that holds fewer ends at
// an invalid byte or at the end of the sequence.
func FuzzKeyBlock(f *testing.F) {
	long := bytes.Repeat([]byte("ACGTTGCAAGCT"), 60) // 720 bases: three blocks at k = 27
	f.Add(long, 27)
	f.Add(long, 55)
	f.Add(long, 1)
	// An N as the byte that would end the first block's next window, and
	// as the last byte of the first block's last window.
	for _, at := range []int{BlockKeys + 26, BlockKeys + 25} {
		edge := bytes.Clone(long)
		edge[at] = 'N'
		f.Add(edge, 27)
	}
	f.Add(bytes.ToLower(long[:300]), 31)
	f.Add([]byte("acgtNNacgTACGTa"), 4)
	f.Add([]byte("ACGTAC"), 7)
	f.Add([]byte(""), 1)
	f.Fuzz(func(t *testing.T, seq []byte, k int) {
		if k < 1 || k > MaxK128 {
			return
		}
		var wantPos []int
		var want []Kmer128
		for p := 0; p+k <= len(seq); p++ {
			if km, ok := CanonicalKey(seq[p:p+k], k); ok {
				wantPos = append(wantPos, p)
				want = append(want, km)
			}
		}
		check := func(name string, next func() (pos int, hi, lo []uint64)) {
			got := 0
			for pos, hi, lo := next(); len(lo) > 0; pos, hi, lo = next() {
				n := len(lo)
				if n > BlockKeys {
					t.Fatalf("%s k=%d: block of %d keys", name, k, n)
				}
				if end := pos + n - 1 + k; n < BlockKeys && end < len(seq) {
					if _, ok := CodeOf(seq[end]); ok {
						t.Fatalf("%s k=%d: block at %d ends after %d keys before valid byte %d", name, k, pos, n, end)
					}
				}
				for j := range lo {
					if got == len(want) {
						t.Fatalf("%s k=%d: extra window %d", name, k, pos+j)
					}
					km := Kmer128{Lo: lo[j]}
					if hi != nil {
						km.Hi = hi[j]
					}
					if pos+j != wantPos[got] || !km.Equal(want[got]) {
						t.Fatalf("%s k=%d: window %d key %+v, want window %d key %+v",
							name, k, pos+j, km, wantPos[got], want[got])
					}
					got++
				}
			}
			if got != len(want) {
				t.Fatalf("%s k=%d: %d windows, want %d", name, k, got, len(want))
			}
		}
		var r Roller
		var hiBlock, loBlock Block
		if k <= MaxK64 {
			r.Reset(seq, k)
			check("Next64", func() (int, []uint64, []uint64) {
				pos, keys := r.Next64(&loBlock)
				return pos, nil, keys
			})
		}
		r.Reset(seq, k)
		check("Next128", func() (int, []uint64, []uint64) { return r.Next128(&hiBlock, &loBlock) })
	})
}
