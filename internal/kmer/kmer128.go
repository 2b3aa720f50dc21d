package kmer

import "math/bits"

// Kmer128 is a k-mer of length k ≤ 63 packed into two uint64 words forming a
// 128-bit big-endian value: Hi holds the more significant bits. As with
// Kmer64, the first base occupies the most significant 2-bit group of the
// low 2k bits and numeric (Hi, Lo) order equals lexicographic order.
//
// This is the paper's §4.4 extension: with a 16-byte k-mer and a 4-byte read
// ID, each tuple is 20 bytes, and LocalSort needs 16 radix passes instead
// of 8.
type Kmer128 struct {
	Hi, Lo uint64
}

// Encode128 packs seq (ASCII bases, len(seq) = k ≤ 63) into a Kmer128.
// It reports false if seq contains a non-ACGT byte or has an unsupported
// length.
func Encode128(seq []byte) (Kmer128, bool) {
	if len(seq) < 1 || len(seq) > MaxK128 {
		return Kmer128{}, false
	}
	var m Kmer128
	for _, b := range seq {
		c, ok := CodeOf(b)
		if !ok {
			return Kmer128{}, false
		}
		m = m.ShiftLeft2().OrBase(c)
	}
	return m, true
}

// String128 decodes a Kmer128 of length k back to its ASCII base string.
func String128(m Kmer128, k int) string {
	buf := make([]byte, k)
	for i := k - 1; i >= 0; i-- {
		buf[i] = CharOf(uint8(m.Lo & 3))
		m = m.ShiftRight2()
	}
	return string(buf)
}

// Less reports whether m sorts before o (numeric order on the 128-bit value,
// which equals lexicographic order for equal-length k-mers).
func (m Kmer128) Less(o Kmer128) bool {
	if m.Hi != o.Hi {
		return m.Hi < o.Hi
	}
	return m.Lo < o.Lo
}

// Equal reports whether m and o are the same k-mer.
func (m Kmer128) Equal(o Kmer128) bool { return m.Hi == o.Hi && m.Lo == o.Lo }

// ShiftLeft2 shifts the 128-bit value left by one base (2 bits).
func (m Kmer128) ShiftLeft2() Kmer128 {
	return Kmer128{Hi: m.Hi<<2 | m.Lo>>62, Lo: m.Lo << 2}
}

// ShiftRight2 shifts the 128-bit value right by one base (2 bits).
func (m Kmer128) ShiftRight2() Kmer128 {
	return Kmer128{Hi: m.Hi >> 2, Lo: m.Lo>>2 | m.Hi<<62}
}

// OrBase ORs a 2-bit base code into the least significant base position.
func (m Kmer128) OrBase(c uint8) Kmer128 {
	return Kmer128{Hi: m.Hi, Lo: m.Lo | uint64(c&3)}
}

// And masks the value with the low-2k-bit mask for length k.
func (m Kmer128) And(k int) Kmer128 {
	n := 2 * uint(k)
	if n >= 64 {
		return Kmer128{Hi: m.Hi & ((uint64(1) << (n - 64)) - 1), Lo: m.Lo}
	}
	return Kmer128{Hi: 0, Lo: m.Lo & ((uint64(1) << n) - 1)}
}

// rev2Groups64 reverses the 32 2-bit groups of a single word.
func rev2Groups64(x uint64) uint64 {
	x = (x>>2)&0x3333333333333333 | (x&0x3333333333333333)<<2
	x = (x>>4)&0x0F0F0F0F0F0F0F0F | (x&0x0F0F0F0F0F0F0F0F)<<4
	return bits.ReverseBytes64(x)
}

// RevComp128 returns the reverse complement of a length-k Kmer128.
func RevComp128(m Kmer128, k int) Kmer128 {
	// Complement, reverse the 64 2-bit groups across both words (reverse
	// each word, then swap), then shift the result down by 128-2k bits.
	r := Kmer128{Hi: rev2Groups64(^m.Lo), Lo: rev2Groups64(^m.Hi)}
	shift := 128 - 2*uint(k)
	if shift >= 64 {
		return Kmer128{Hi: 0, Lo: r.Hi >> (shift - 64)}
	}
	if shift == 0 {
		return r
	}
	return Kmer128{Hi: r.Hi >> shift, Lo: r.Lo>>shift | r.Hi<<(64-shift)}
}

// Canonical128 returns the lexicographically smaller of a length-k Kmer128
// and its reverse complement.
func Canonical128(m Kmer128, k int) Kmer128 {
	rc := RevComp128(m, k)
	if rc.Less(m) {
		return rc
	}
	return m
}

// Prefix128 returns the m-mer prefix of a length-k Kmer128 as an integer bin
// in [0, 4^m). It requires m ≤ k and m ≤ 16 (bins fit in uint32).
func Prefix128(km Kmer128, k, m int) uint32 {
	shift := 2 * uint(k-m)
	if shift >= 64 {
		return uint32(km.Hi >> (shift - 64))
	}
	if shift == 0 {
		return uint32(km.Lo)
	}
	return uint32(km.Lo>>shift | km.Hi<<(64-shift))
}

// InRange is 1 when bin lies in [lo, hi) and 0 otherwise, computed without
// a branch, so a loop that keeps the k-mers of one bin range costs the
// same whichever way each goes: bin−lo has its top bit clear exactly when
// bin ≥ lo, and bin−hi has it set exactly when bin < hi. All three values
// must be below 2^63, as bins and their bounds are.
func InRange(bin, lo, hi uint64) int {
	return int((^(bin - lo) & (bin - hi)) >> 63)
}

// OrBaseAt ORs a 2-bit base code into the most significant base position of
// a length-k k-mer (the rolling reverse-complement update and the de Bruijn
// predecessor step both prepend bases).
func (m Kmer128) OrBaseAt(c uint8, k int) Kmer128 {
	sh := 2 * uint(k-1)
	if sh >= 64 {
		return Kmer128{Hi: m.Hi | uint64(c&3)<<(sh-64), Lo: m.Lo}
	}
	return Kmer128{Hi: m.Hi, Lo: m.Lo | uint64(c&3)<<sh}
}

// FirstBase returns the 2-bit code of the first (most significant) base of
// a length-k k-mer.
func (m Kmer128) FirstBase(k int) uint8 {
	sh := 2 * uint(k-1)
	if sh >= 64 {
		return uint8(m.Hi >> (sh - 64) & 3)
	}
	return uint8(m.Lo >> sh & 3)
}
