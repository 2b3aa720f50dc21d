// Package radix implements the out-of-place radix sorts used by the
// METAPREP LocalSort step (§3.4) and the baseline it is compared against
// (§4.2.2).
//
// The pipeline's tuples are stored structure-of-arrays: a key slice (the
// packed canonical k-mer) and a parallel 32-bit payload slice (the global
// read ID, or the component ID under the multi-pass optimization). The
// paper's choice of 8-bit digits — 8 LSD passes over a 64-bit key rather
// than 4 passes of 16 bits — is implemented here exactly (SortPairs64,
// SortPairs128), along with the 16-bit variant so the locality claim can be
// re-measured (see the package benchmarks).
//
// On top of the fixed-pass sorts, the package provides key-range-aware
// entry points: a canonical k-mer has only 2k significant bits, and each
// LocalSort thread partition owns a contiguous m-mer bin range that pins
// the high-order bits besides. SortPairs64Range sorts the undetermined bits
// most-significant digit first, so that everything after the first scatter
// happens inside one cache-resident bucket (sorter64). BinSorter goes
// further: the pipeline receives its tuples straight into groups of
// consecutive m-mer bins (or spills them into buckets of such bins), so
// LocalSort only has to finish each group in place, over the low-order bits
// the group leaves undetermined, with scratch the size of one group.
//
// Below the first scatter, a metagenome's buckets are lopsided: shared
// repeats and families of homologs pile hundreds of copies of a few keys
// into one bucket, which a further digit would move again to split very few
// keys. The MSD-first kernel therefore finishes a bucket below the top
// level that is longer than its insertion leaf by the bucket's distinct
// keys when it has at most 64 of them: a fixed 128-slot table indexes every
// tuple's key, the distinct keys are insertion-sorted, and one stable
// scatter in arrival order places every tuple, straight onto the side of
// the ping-pong the recursion wants it on. At the 65th distinct key it falls
// back to the next radix digit. The order is the same stable order, and
// BinSorter.Tally reports how often each happened.
package radix

import "math/bits"

// SortPairs64Range sorts keys known to lie in the contiguous interval
// [min, max] with the MSD-first kernel (sorter64), which touches only the
// bits that interval leaves undetermined. The result is that of a stable
// sort by key, identical to SortPairs64's. Scratch requirements are those
// of SortPairs64.
func SortPairs64Range(keys []uint64, vals []uint32, tmpK []uint64, tmpV []uint32, min, max uint64) {
	n := len(keys)
	if n < 2 {
		return
	}
	var s sorter64
	s.sort(keys, vals[:n], tmpK[:n], tmpV[:n], uint(bits.Len64(min^max)), 0, true)
}

// msdInsertionMax is the bucket length at or below which sorter64 stops
// scattering and finishes with a stable insertion sort.
const msdInsertionMax = 64

// The distinct-key finish (finishDistinct) takes buckets of at most
// distinctTuplesMax tuples, so its per-tuple index is a fixed 4 KiB, and of
// at most distinctMax distinct keys, so a distinct index fits a uint8. The
// table has twice as many slots as keys, so probe runs stay short.
const (
	distinctMax       = 64
	distinctSlots     = 2 * distinctMax
	distinctTuplesMax = 4096
)

// distinctSlot is key x's home slot in the distinct-key table: the top 7
// bits of a Fibonacci hash, which every bit of x reaches, so keys that
// differ only in their low bits spread over the table.
func distinctSlot(x uint64) uint {
	return uint(x * 0x9E3779B97F4A7C15 >> 57)
}

// msdTopLen is the length above which a scatter level uses a plain 8-bit
// digit: the level's source and destination no longer sit in cache
// together, and an out-of-cache scatter is cheapest with few live output
// streams (DESIGN.md, ablation note 7, has the measured cost curve).
const msdTopLen = 1 << 15

// msdMaxDigit is the widest in-cache digit: 2 048 buckets.
const msdMaxDigit = 11

// sorter64 is the MSD-first hybrid sort of (key, payload) pairs: a stable
// scatter on the top undetermined digit, then each bucket again on the next
// digit — sized to the bucket so buckets average ~8 tuples — until a bucket
// is short enough for insertion. Working top-down keeps everything below
// the first level inside one bucket, which fits in cache, where an LSD sort
// streams the whole input through every pass. Levels ping-pong between the
// input and the scratch; a flag carried down the recursion says which side
// each bucket's result belongs on, so there is no copy-back pass.
//
// A bucket below the top level still longer than msdInsertionMax is first
// offered to finishDistinct, which sorts it by its distinct keys when it
// has few (a repeat's copies, piled into one bucket).
//
// The value holds one bucket-boundary array per recursion level, grown on
// first use, so a caller that sorts many ranges (BinSorter's bins and
// buckets) allocates for the first few and never again; the distinct-key
// finish's scratch is fixed-size. Not safe for concurrent use.
type sorter64 struct {
	// ≤ 16 scatter levels: each consumes at least 4 of 64 bits.
	bounds [16][]int
	// slotID[h] is 1 + the distinct index of the key in slot h, 0 when the
	// slot is empty; slotKey[h] is that key.
	slotKey [distinctSlots]uint64
	slotID  [distinctSlots]uint8
	// dKey and dCnt are the bucket's distinct keys, in order of first
	// arrival, and their counts, then their output cursors; dOrd lists the
	// distinct indexes in key order.
	dKey [distinctMax]uint64
	dCnt [distinctMax]int
	dOrd [distinctMax]uint8
	// tupleID[i] is the distinct index of the bucket's tuple i.
	tupleID [distinctTuplesMax]uint8
	// finishes and fallbacks count the buckets finishDistinct sorted and
	// those it handed back to the radix digit.
	finishes, fallbacks int
}

// sort orders the pairs in (k, v) by their low sig bits — the bits above
// are equal across k. tk and tv are scratch of the same length. The result
// lands in (k, v) when inPlace, in (tk, tv) otherwise. level indexes the
// per-level boundary arrays.
func (s *sorter64) sort(k []uint64, v []uint32, tk []uint64, tv []uint32, sig uint, level int, inPlace bool) {
	n := len(k)
	if level > 0 && n > msdInsertionMax && n <= distinctTuplesMax && sig > 0 &&
		s.finishDistinct(k, v, tk, tv, inPlace) {
		return
	}
	for n > msdInsertionMax && sig > 0 {
		b := uint(8)
		if n <= msdTopLen {
			// ⌈log₂ n⌉ − 3 bits, so buckets average ~8 tuples; at least
			// 4 because n > 64.
			b = uint(bits.Len(uint(n-1))) - 3
			if b > msdMaxDigit {
				b = msdMaxDigit
			}
		}
		if b > sig {
			b = sig
		}
		shift := sig - b
		mask := uint64(1)<<b - 1
		cnt := s.bounds[level]
		if len(cnt) < 1<<b {
			cnt = make([]int, 1<<msdMaxDigit)
			s.bounds[level] = cnt
		}
		cnt = cnt[:1<<b]
		clear(cnt)
		for _, x := range k {
			cnt[x>>shift&mask]++
		}
		sig = shift
		if cnt[k[0]>>shift&mask] == n {
			continue // every key shares this digit: nothing to move
		}
		sum := 0
		for i, c := range cnt {
			cnt[i] = sum
			sum += c
		}
		for i, x := range k {
			d := x >> shift & mask
			j := cnt[d]
			cnt[d] = j + 1
			tk[j] = x
			tv[j] = v[i]
		}
		// cnt[d] is now the end of bucket d. The data moved to the scratch
		// side, so each bucket sorts from there and its "in place" flips.
		lo := 0
		for _, hi := range cnt {
			if hi > lo {
				s.sort(tk[lo:hi], tv[lo:hi], k[lo:hi], v[lo:hi], sig, level+1, !inPlace)
				lo = hi
			}
		}
		return
	}
	if inPlace {
		insertionPairs64(k, v)
	} else {
		insertionInto64(tk, tv, k, v)
	}
}

// finishDistinct sorts a bucket of at most distinctTuplesMax tuples by its
// distinct keys, if it has at most distinctMax of them: one pass indexes
// every tuple's key in the slot table and counts it, an insertion sort
// orders the distinct keys, and one stable scatter in arrival order moves
// the values to their key's cursor while the keys are written as runs. The
// result lands on the side inPlace names, as sort's does. At the
// (distinctMax+1)th distinct key it stops and returns false, having moved
// nothing.
func (s *sorter64) finishDistinct(k []uint64, v []uint32, tk []uint64, tv []uint32, inPlace bool) bool {
	clear(s.slotID[:])
	ids := s.tupleID[:len(k)]
	nd := 0
	for i, x := range k {
		h := distinctSlot(x)
		for {
			id := s.slotID[h]
			if id == 0 {
				if nd == distinctMax {
					s.fallbacks++
					return false
				}
				s.slotKey[h], s.dKey[nd], s.dCnt[nd] = x, x, 0
				nd++
				id = uint8(nd)
				s.slotID[h] = id
			} else if s.slotKey[h] != x {
				h = (h + 1) % distinctSlots
				continue
			}
			ids[i] = id - 1
			s.dCnt[id-1]++
			break
		}
	}
	s.finishes++
	ord := s.dOrd[:nd]
	for i := range ord {
		d := uint8(i)
		j := i - 1
		for ; j >= 0 && s.dKey[ord[j]] > s.dKey[d]; j-- {
			ord[j+1] = ord[j]
		}
		ord[j+1] = d
	}
	dstK, dstV, srcV := tk, tv, v
	if inPlace {
		// The values scatter back into v, so they are read from a copy.
		copy(tv, v)
		dstK, dstV, srcV = k, v, tv
	}
	pos := 0
	for _, d := range ord {
		run := dstK[pos : pos+s.dCnt[d]]
		for j := range run {
			run[j] = s.dKey[d]
		}
		s.dCnt[d] = pos
		pos += len(run)
	}
	for i, d := range ids {
		j := s.dCnt[d]
		s.dCnt[d] = j + 1
		dstV[j] = srcV[i]
	}
	return true
}

// BinSorter sorts the tuples of one m-mer bin, or of one run of
// consecutive bins (a receive group, a spill bucket), in place. Every key
// of such a range agrees above its low sig bits (the bin field pins them,
// and the range's shared high bin bits), so only those bits are sorted:
// 64-bit keys and 128-bit keys whose sig bits fit the low word go through
// the MSD-first kernel (sorter64), wider 128-bit ranges through
// SortPairs128 over ⌈sig/8⌉ digits. Every path is stable. The scratch grows
// to the largest range sorted so far (Grow presizes it, Use lends it), so a
// warm sorter allocates nothing per range. Not safe for concurrent use.
type BinSorter struct {
	s      sorter64
	tk, th []uint64
	tv     []uint32
}

// Grow presizes the scratch for bins of up to n tuples (wide: 128-bit keys).
func (b *BinSorter) Grow(n int, wide bool) {
	if len(b.tk) < n {
		b.tk, b.tv = make([]uint64, n), make([]uint32, n)
	}
	if wide && len(b.th) < n {
		b.th = make([]uint64, n)
	}
}

// Use lends the sorter caller-owned scratch: key words tk (and th, for
// 128-bit ranges wider than one word) and values tv, all of one length.
// Ranges up to that length sort without allocating; Use(nil, nil, nil)
// drops the loan.
func (b *BinSorter) Use(tk, th []uint64, tv []uint32) {
	b.tk, b.th, b.tv = tk, th, tv
}

// Tally returns how many buckets the sorter has finished by their distinct
// keys, and how many it tried to and handed back to a radix digit at the
// (distinctMax+1)th distinct key, since the last call, and restarts both
// counts.
func (b *BinSorter) Tally() (finishes, fallbacks int) {
	finishes, fallbacks = b.s.finishes, b.s.fallbacks
	b.s.finishes, b.s.fallbacks = 0, 0
	return finishes, fallbacks
}

// Sort64 sorts one bin of 64-bit keys, vals alongside, by their low sig
// bits.
func (b *BinSorter) Sort64(keys []uint64, vals []uint32, sig uint) {
	n := len(keys)
	if n < 2 {
		return
	}
	b.Grow(n, false)
	b.s.sort(keys, vals[:n], b.tk[:n], b.tv[:n], sig, 0, true)
}

// Sort128 sorts one bin of 128-bit keys held as hi/lo words, vals
// alongside, by their low sig bits.
func (b *BinSorter) Sort128(hi, lo []uint64, vals []uint32, sig uint) {
	n := len(lo)
	if n < 2 {
		return
	}
	if sig <= 64 {
		// The hi words are all equal: the bin is a 64-bit sort of lo.
		b.Sort64(lo, vals, sig)
		return
	}
	b.Grow(n, true)
	SortPairs128(hi, lo, vals, b.th[:n], b.tk[:n], b.tv[:n], int(sig+7)/8)
}

// insertionPairs64 is a stable insertion sort of a short key/value run.
func insertionPairs64(keys []uint64, vals []uint32) {
	for i := 1; i < len(keys); i++ {
		k, v := keys[i], vals[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1] = keys[j]
			vals[j+1] = vals[j]
			j--
		}
		keys[j+1] = k
		vals[j+1] = v
	}
}

// insertionInto64 is insertionPairs64 reading the run from (srcK, srcV) and
// building the sorted result in (dstK, dstV), so a run that sits on the
// wrong side of a ping-pong is moved and sorted in the same pass.
func insertionInto64(dstK []uint64, dstV []uint32, srcK []uint64, srcV []uint32) {
	for i, k := range srcK {
		j := i - 1
		for j >= 0 && dstK[j] > k {
			dstK[j+1] = dstK[j]
			dstV[j+1] = dstV[j]
			j--
		}
		dstK[j+1] = k
		dstV[j+1] = srcV[i]
	}
}

// SortPairs64 sorts keys (and vals along with it) ascending using a stable
// LSD radix sort with 8-bit digits. tmpK and tmpV are scratch buffers of at
// least len(keys); passes selects how many low-order bytes of the key
// participate (8 covers the full 64-bit key). The sorted data always ends in
// keys/vals.
//
// len(vals), len(tmpK) and len(tmpV) must all be ≥ len(keys).
func SortPairs64(keys []uint64, vals []uint32, tmpK []uint64, tmpV []uint32, passes int) {
	n := len(keys)
	if n < 2 || passes <= 0 {
		return
	}
	srcK, srcV := keys, vals
	dstK, dstV := tmpK[:n], tmpV[:n]
	var count [256]int
	for p := 0; p < passes; p++ {
		shift := uint(8 * p)
		for i := range count {
			count[i] = 0
		}
		for _, k := range srcK {
			count[k>>shift&0xFF]++
		}
		// Skip passes where all keys share this byte.
		if count[srcK[0]>>shift&0xFF] == n {
			continue
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for i, k := range srcK {
			d := k >> shift & 0xFF
			j := count[d]
			count[d]++
			dstK[j] = k
			dstV[j] = srcV[i]
		}
		srcK, srcV, dstK, dstV = dstK, dstV, srcK, srcV
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(vals, srcV)
	}
}

// SortPairs64Digit16 is SortPairs64 with 16-bit digits (65 536 buckets,
// half as many passes). The paper reports this is slower than 8-bit digits
// because the larger count array has worse temporal locality; it is kept as
// an ablation target.
func SortPairs64Digit16(keys []uint64, vals []uint32, tmpK []uint64, tmpV []uint32, passes int) {
	n := len(keys)
	if n < 2 || passes <= 0 {
		return
	}
	srcK, srcV := keys, vals
	dstK, dstV := tmpK[:n], tmpV[:n]
	count := make([]int, 1<<16)
	for p := 0; p < passes; p++ {
		shift := uint(16 * p)
		for i := range count {
			count[i] = 0
		}
		for _, k := range srcK {
			count[k>>shift&0xFFFF]++
		}
		if count[srcK[0]>>shift&0xFFFF] == n {
			continue
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for i, k := range srcK {
			d := k >> shift & 0xFFFF
			j := count[d]
			count[d]++
			dstK[j] = k
			dstV[j] = srcV[i]
		}
		srcK, srcV, dstK, dstV = dstK, dstV, srcK, srcV
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(vals, srcV)
	}
}

// SortPairs128 sorts 128-bit keys held as parallel hi/lo slices (and vals
// along with them) using a stable LSD radix sort with 8-bit digits: up to
// 8 passes over lo then 8 over hi, 16 passes total as in the paper's
// 63-mer configuration (§4.4). passes selects how many low-order bytes of
// the 128-bit key participate (16 covers the full key; a canonical k-mer
// needs only ⌈2k/8⌉). Scratch slices must be ≥
// len(lo).
func SortPairs128(hi, lo []uint64, vals []uint32, tmpHi, tmpLo []uint64, tmpV []uint32, passes int) {
	n := len(lo)
	if n < 2 || passes <= 0 {
		return
	}
	if passes > 16 {
		passes = 16
	}
	srcH, srcL, srcV := hi, lo, vals
	dstH, dstL, dstV := tmpHi[:n], tmpLo[:n], tmpV[:n]
	var count [256]int
	for p := 0; p < passes; p++ {
		shift := uint(8 * (p % 8))
		word := srcL
		if p >= 8 {
			word = srcH
		}
		for i := range count {
			count[i] = 0
		}
		for _, k := range word {
			count[k>>shift&0xFF]++
		}
		if count[word[0]>>shift&0xFF] == n {
			continue
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for i, k := range word {
			d := k >> shift & 0xFF
			j := count[d]
			count[d]++
			dstH[j] = srcH[i]
			dstL[j] = srcL[i]
			dstV[j] = srcV[i]
		}
		srcH, srcL, srcV, dstH, dstL, dstV = dstH, dstL, dstV, srcH, srcL, srcV
	}
	if &srcL[0] != &lo[0] {
		copy(hi, srcH)
		copy(lo, srcL)
		copy(vals, srcV)
	}
}

// SortKeys64 sorts keys ascending with the same 8-bit-digit LSD scheme as
// SortPairs64, without a payload. tmp must be ≥ len(keys). The sorted data
// always ends in keys.
func SortKeys64(keys, tmp []uint64, passes int) {
	n := len(keys)
	if n < 2 || passes <= 0 {
		return
	}
	src, dst := keys, tmp[:n]
	var count [256]int
	for p := 0; p < passes; p++ {
		shift := uint(8 * p)
		for i := range count {
			count[i] = 0
		}
		for _, k := range src {
			count[k>>shift&0xFF]++
		}
		if count[src[0]>>shift&0xFF] == n {
			continue
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for _, k := range src {
			d := k >> shift & 0xFF
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}
