package kmer

import "math/bits"

// scan.go implements rolling canonical k-mer enumeration over read
// sequences. K-mers containing a non-ACGT byte (such as 'N') are skipped, as
// in the paper's KmerGen step (§3.2): the scanner restarts its rolling state
// after each invalid byte, so exactly the k-mers fully contained in maximal
// ACGT runs are produced.
//
// There is one roll per width, both in block form: Roller.Next64 rolls one
// word (k ≤ 31) and Roller.Next128 two (k ≤ 63). Each call fills the
// Roller's fixed block of at most BlockKeys keys, so memory does not grow
// with read length and a caller's per-key work is a loop over a block, not
// a call per key. A block ends after BlockKeys keys or at a non-ACGT byte,
// so its windows are consecutive: key j is the window at pos+j. ForEachKey,
// ForEach64, ForEach128 and AppendCanonical64 are loops over these blocks.

// BlockKeys is the most keys one Roller call yields: 2 KiB a key word, so a
// block stays in L1 beside the read it came from.
const BlockKeys = 256

// Block is the caller's storage for one word of a block of keys. A caller
// that keeps its blocks across sequences clears nothing per sequence.
type Block = [BlockKeys]uint64

// Roller enumerates the canonical k-mers of one sequence a block at a time.
// Reset starts a sequence; the rolling state carries over between calls, so
// a run of valid bases may span any number of blocks.
type Roller struct {
	seq     []byte
	k       int
	i       int     // next byte of seq to roll
	run     int     // valid bases rolled since the last invalid byte, capped at k-1
	fwd, rc Kmer128 // the forward and reverse-complement windows; Hi is 0 in Next64
}

// Reset starts enumerating the k-mers of seq, 1 ≤ k ≤ 63.
func (r *Roller) Reset(seq []byte, k int) {
	r.seq, r.k, r.i, r.run = seq, k, 0, 0
	r.fwd, r.rc = Kmer128{}, Kmer128{}
}

// Next64 rolls the next block of canonical keys for k ≤ 31 into block and
// returns the position of its first window (the 0-based offset of its first
// base) and the filled prefix of block; keys[j] is the Kmer64 value of the
// window at pos+j. An empty keys means the sequence is exhausted.
func (r *Roller) Next64(block *Block) (pos int, keys []uint64) {
	seq, i, k, run := r.seq, r.i, r.k, r.run
	// rcShift ≤ 60, so masking it to 63 changes nothing but lets the
	// compiler drop its oversized-shift guard.
	mask, rcShift := Mask64(k), 2*uint(k-1)&63
	fwd, rc := r.fwd.Lo, r.rc.Lo
	n := 0
	for n == 0 && i < len(seq) {
		// Warm up: roll until the next valid base completes a window.
		for run < k-1 && i < len(seq) {
			c := baseCode[seq[i]]
			i++
			if c == invalidBase {
				run = 0
				continue
			}
			fwd = (fwd<<2 | uint64(c)) & mask
			rc = rc>>2 | uint64(c^3)<<rcShift
			run++
		}
		pos = i - run
		// Every valid base now completes a window; a block ends at the next
		// invalid byte, which restarts the warm-up.
		for n < BlockKeys && i < len(seq) {
			c := baseCode[seq[i]]
			i++
			if c == invalidBase {
				run = 0
				break
			}
			fwd = (fwd<<2 | uint64(c)) & mask
			rc = rc>>2 | uint64(c^3)<<rcShift
			block[n] = min(fwd, rc)
			n++
		}
	}
	r.i, r.run, r.fwd.Lo, r.rc.Lo = i, run, fwd, rc
	return pos, block[:n]
}

// Next128 is Next64's roll on two words, for any k ≤ 63, into hiBlock and
// loBlock: the key of the window at pos+j is Kmer128{Hi: hi[j], Lo: lo[j]},
// with hi[j] = 0 for k ≤ 31.
func (r *Roller) Next128(hiBlock, loBlock *Block) (pos int, hi, lo []uint64) {
	seq, i, k, run := r.seq, r.i, r.k, r.run
	fwd, rc := r.fwd, r.rc
	n := 0
	for n == 0 && i < len(seq) {
		for run < k-1 && i < len(seq) {
			c := baseCode[seq[i]]
			i++
			if c == invalidBase {
				run = 0
				continue
			}
			fwd = fwd.ShiftLeft2().OrBase(c).And(k)
			rc = rc.ShiftRight2().OrBaseAt(c^3, k)
			run++
		}
		pos = i - run
		for n < BlockKeys && i < len(seq) {
			c := baseCode[seq[i]]
			i++
			if c == invalidBase {
				run = 0
				break
			}
			fwd = fwd.ShiftLeft2().OrBase(c).And(k)
			rc = rc.ShiftRight2().OrBaseAt(c^3, k)
			// The smaller of the two, selected without a branch: sel is
			// all ones when the 128-bit subtraction rc − fwd borrows, that
			// is when rc < fwd.
			_, borrow := bits.Sub64(rc.Lo, fwd.Lo, 0)
			_, borrow = bits.Sub64(rc.Hi, fwd.Hi, borrow)
			sel := -borrow
			hiBlock[n] = fwd.Hi ^ (fwd.Hi^rc.Hi)&sel
			loBlock[n] = fwd.Lo ^ (fwd.Lo^rc.Lo)&sel
			n++
		}
	}
	r.i, r.run, r.fwd, r.rc = i, run, fwd, rc
	return pos, hiBlock[:n], loBlock[:n]
}

// ForEachKey calls fn(pos, canonical) for every canonical k-mer of seq, in
// position order, for any k in 1..63. pos is the 0-based offset of the
// k-mer's first base; fn is never called when len(seq) < k. For k ≤ 31 the
// roll runs on one word (Next64) and yields Hi = 0 with Lo equal to the
// Kmer64 value; above it runs ForEach128.
func ForEachKey(seq []byte, k int, fn func(pos int, km Kmer128)) {
	if k > MaxK64 {
		ForEach128(seq, k, fn)
		return
	}
	var r Roller
	var block Block
	r.Reset(seq, k)
	for pos, keys := r.Next64(&block); len(keys) > 0; pos, keys = r.Next64(&block) {
		for j, key := range keys {
			fn(pos+j, Kmer128{Lo: key})
		}
	}
}

// ForEach64 is ForEachKey for k ≤ 31, yielding each key as a Kmer64.
func ForEach64(seq []byte, k int, fn func(pos int, m Kmer64)) {
	var r Roller
	var block Block
	r.Reset(seq, k)
	for pos, keys := r.Next64(&block); len(keys) > 0; pos, keys = r.Next64(&block) {
		for j, key := range keys {
			fn(pos+j, Kmer64(key))
		}
	}
}

// ForEach128 is ForEachKey over the two-word roll (Next128), for any
// k ≤ 63.
func ForEach128(seq []byte, k int, fn func(pos int, m Kmer128)) {
	var r Roller
	var hiBlock, loBlock Block
	r.Reset(seq, k)
	for pos, hi, lo := r.Next128(&hiBlock, &loBlock); len(lo) > 0; pos, hi, lo = r.Next128(&hiBlock, &loBlock) {
		for j := range lo {
			fn(pos+j, Kmer128{Hi: hi[j], Lo: lo[j]})
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
	var r Roller
	var block Block
	r.Reset(seq, k)
	for _, keys := r.Next64(&block); len(keys) > 0; _, keys = r.Next64(&block) {
		for _, key := range keys {
			dst = append(dst, Kmer64(key))
		}
	}
	return dst
}
