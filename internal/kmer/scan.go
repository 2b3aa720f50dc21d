package kmer

// scan.go implements rolling canonical k-mer enumeration over read
// sequences. K-mers containing a non-ACGT byte (such as 'N') are skipped, as
// in the paper's KmerGen step (§3.2): the scanner restarts its rolling state
// after each invalid byte, so exactly the k-mers fully contained in maximal
// ACGT runs are produced.

// ForEachKey calls fn(pos, canonical) for every canonical k-mer of seq, in
// position order, for any k in 1..63. pos is the 0-based offset of the
// k-mer's first base; fn is never called when len(seq) < k. For k ≤ 31 the
// roll runs on one word and yields Hi = 0 with Lo equal to the Kmer64 value;
// above it runs ForEach128.
func ForEachKey(seq []byte, k int, fn func(pos int, km Kmer128)) {
	if k > MaxK64 {
		ForEach128(seq, k, fn)
		return
	}
	mask := Mask64(k)
	rcShift := 2 * uint(k-1)
	var fwd, rc uint64
	run := 0 // number of consecutive valid bases ending at the current one
	for i, b := range seq {
		c, ok := CodeOf(b)
		if !ok {
			run = 0
			continue
		}
		fwd = (fwd<<2 | uint64(c)) & mask
		rc = rc>>2 | uint64(^c&3)<<rcShift
		run++
		if run >= k {
			m := fwd
			if rc < m {
				m = rc
			}
			fn(i-k+1, Kmer128{Lo: m})
		}
	}
}

// ForEach64 is ForEachKey for k ≤ 31, yielding each key as a Kmer64. It
// costs a second closure call per k-mer; in-module callers use ForEachKey.
func ForEach64(seq []byte, k int, fn func(pos int, m Kmer64)) {
	ForEachKey(seq, k, func(pos int, km Kmer128) { fn(pos, Kmer64(km.Lo)) })
}

// ForEach128 is ForEachKey's roll for the 128-bit representation (k ≤ 63).
func ForEach128(seq []byte, k int, fn func(pos int, m Kmer128)) {
	var fwd, rc Kmer128
	run := 0
	for i, b := range seq {
		c, ok := CodeOf(b)
		if !ok {
			run = 0
			continue
		}
		fwd = fwd.ShiftLeft2().OrBase(c).And(k)
		rc = rc.ShiftRight2().OrBaseAt(^c&3, k)
		run++
		if run >= k {
			m := fwd
			if rc.Less(m) {
				m = rc
			}
			fn(i-k+1, m)
		}
	}
}

// CanonicalKey encodes one k-mer string (len(s) = k, 1 ≤ k ≤ 63) to its
// canonical key: the value ForEachKey yields for the same window. It
// reports false on a non-ACGT byte or a length other than k. Like ForEachKey
// it encodes on one word for k ≤ 31.
func CanonicalKey(s []byte, k int) (Kmer128, bool) {
	if len(s) != k {
		return Kmer128{}, false
	}
	if k <= MaxK64 {
		m, ok := Encode64(s)
		if !ok {
			return Kmer128{}, false
		}
		return Kmer128{Lo: uint64(Canonical64(m, k))}, true
	}
	m, ok := Encode128(s)
	if !ok {
		return Kmer128{}, false
	}
	return Canonical128(m, k), true
}

// AppendCanonical64 appends the canonical k-mers of seq (k ≤ 31) to dst in
// position order and returns the extended slice.
func AppendCanonical64(dst []Kmer64, seq []byte, k int) []Kmer64 {
	ForEachKey(seq, k, func(_ int, km Kmer128) { dst = append(dst, Kmer64(km.Lo)) })
	return dst
}
