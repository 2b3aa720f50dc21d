package kmer

import "math/bits"

// Kmer64 is a k-mer of length k ≤ 31 packed into a uint64. The first base of
// the k-mer is the most significant 2-bit group of the low 2k bits; bits
// above 2k are zero. Numeric order equals lexicographic order of the base
// string for k-mers of equal length.
type Kmer64 uint64

// Encode64 packs seq (ASCII bases, len(seq) = k ≤ 31) into a Kmer64.
// It reports false if seq contains a non-ACGT byte or has an unsupported
// length.
func Encode64(seq []byte) (Kmer64, bool) {
	if len(seq) < 1 || len(seq) > MaxK64 {
		return 0, false
	}
	var v uint64
	for _, b := range seq {
		c, ok := CodeOf(b)
		if !ok {
			return 0, false
		}
		v = v<<2 | uint64(c)
	}
	return Kmer64(v), true
}

// String64 decodes a Kmer64 of length k back to its ASCII base string.
func String64(m Kmer64, k int) string {
	buf := make([]byte, k)
	v := uint64(m)
	for i := k - 1; i >= 0; i-- {
		buf[i] = CharOf(uint8(v & 3))
		v >>= 2
	}
	return string(buf)
}

// RevComp64 returns the reverse complement of a length-k Kmer64.
//
// Complementing a base is bitwise NOT of its 2-bit group, so complementing
// the whole word and reversing its 2-bit groups yields the reverse
// complement in the high bits; the final shift realigns it into the low 2k
// bits.
func RevComp64(m Kmer64, k int) Kmer64 {
	x := ^uint64(m)
	x = (x>>2)&0x3333333333333333 | (x&0x3333333333333333)<<2
	x = (x>>4)&0x0F0F0F0F0F0F0F0F | (x&0x0F0F0F0F0F0F0F0F)<<4
	x = bits.ReverseBytes64(x)
	return Kmer64(x >> (64 - 2*uint(k)))
}

// Canonical64 returns the lexicographically smaller of a length-k Kmer64 and
// its reverse complement — the canonical form the pipeline enumerates.
func Canonical64(m Kmer64, k int) Kmer64 {
	rc := RevComp64(m, k)
	if rc < m {
		return rc
	}
	return m
}

// Mask64 returns the low-2k-bit mask used by rolling k-mer updates.
func Mask64(k int) uint64 {
	return (uint64(1) << (2 * uint(k))) - 1
}
