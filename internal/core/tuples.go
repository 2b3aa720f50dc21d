package core

import "metaprep/internal/radix"

// tupleBuf is a structure-of-arrays buffer of (k-mer, value) tuples. The
// value is a 32-bit global read ID — or, under the §3.5.1 multi-pass
// optimization, a component ID. In 64-bit mode (k ≤ 31) a tuple is the
// paper's 12 bytes (8-byte key + 4-byte value); in 128-bit mode (k ≤ 63) a
// second key word brings it to the paper's 20 bytes.
type tupleBuf struct {
	lo  []uint64
	hi  []uint64 // nil in 64-bit mode
	val []uint32
}

// newTupleBuf allocates capacity for n tuples.
func newTupleBuf(n uint64, wide bool) *tupleBuf {
	b := &tupleBuf{
		lo:  make([]uint64, n),
		val: make([]uint32, n),
	}
	if wide {
		b.hi = make([]uint64, n)
	}
	return b
}

// wide reports whether the buffer is in 128-bit mode.
func (b *tupleBuf) wide() bool { return b.hi != nil }

// bytesPerTuple returns the wire size of one tuple.
func (b *tupleBuf) bytesPerTuple() int {
	if b.wide() {
		return 20
	}
	return 12
}

// memBytes returns the allocated size of the buffer.
func (b *tupleBuf) memBytes() int64 {
	n := int64(len(b.lo))
	per := int64(12)
	if b.wide() {
		per = 20
	}
	return n * per
}

// set stores a tuple at index i.
func (b *tupleBuf) set(i uint64, hi, lo uint64, val uint32) {
	b.lo[i] = lo
	b.val[i] = val
	if b.hi != nil {
		b.hi[i] = hi
	}
}

// keyRange bounds the packed keys of one spill run: every key's m-mer
// prefix bin (key >> shift) lies in the task's [binLo, binHi), so the bits
// above the highest bit the range leaves free never need a radix pass.
type keyRange struct {
	binLo, binHi int
	// shift is the bit position of the bin field: 2(k-m).
	shift uint
}

// sortRange sorts tuples [off, off+cnt) by key ascending, with the same
// range of scratch as the ping-pong buffer. kr bounds the keys in the
// range: the sort works only on the bits the bin range has not already
// decided (a canonical k-mer has 2k significant bits, and the range pins
// the high-order ones) — MSD-first for 64-bit keys, LSD over the computed
// digit count for 128-bit ones. rs keeps the 64-bit sort's bucket tables
// from one call to the next.
func (b *tupleBuf) sortRange(off, cnt uint64, kr keyRange, scratch *tupleBuf, rs *radix.RangeSorter) {
	if cnt < 2 {
		return
	}
	lo := b.lo[off : off+cnt]
	val := b.val[off : off+cnt]
	sLo := scratch.lo[off : off+cnt]
	sVal := scratch.val[off : off+cnt]
	if b.wide() {
		hi := b.hi[off : off+cnt]
		sHi := scratch.hi[off : off+cnt]
		minHi, minLo := shift128(uint64(kr.binLo), kr.shift)
		maxHi, maxLo := shift128(uint64(kr.binHi), kr.shift)
		if maxLo == 0 { // 128-bit decrement: max = (binHi << shift) - 1
			maxHi--
		}
		maxLo--
		radix.SortPairs128Range(hi, lo, val, sHi, sLo, sVal, minHi, minLo, maxHi, maxLo)
		return
	}
	minK := uint64(kr.binLo) << kr.shift
	maxK := uint64(kr.binHi)<<kr.shift - 1
	rs.Sort64(lo, val, sLo, sVal, minK, maxK)
}

// shift128 computes v << s in 128 bits, returned as (hi, lo).
func shift128(v uint64, s uint) (hi, lo uint64) {
	switch {
	case s >= 64:
		return v << (s - 64), 0
	case s == 0:
		return 0, v
	default:
		return v >> (64 - s), v << s
	}
}

// tupleMsg is the payload of one all-to-all exchange message: views into
// the sender's kmerOut region bound for one destination.
type tupleMsg struct {
	lo  []uint64
	hi  []uint64
	val []uint32
}

// msgFor builds the message for a region [off, off+cnt) of b.
func (b *tupleBuf) msgFor(off, cnt uint64) tupleMsg {
	m := tupleMsg{
		lo:  b.lo[off : off+cnt],
		val: b.val[off : off+cnt],
	}
	if b.hi != nil {
		m.hi = b.hi[off : off+cnt]
	}
	return m
}

// slice returns the message's tuples [a, b).
func (m tupleMsg) slice(a, b uint64) tupleMsg {
	s := tupleMsg{lo: m.lo[a:b], val: m.val[a:b]}
	if m.hi != nil {
		s.hi = m.hi[a:b]
	}
	return s
}

// receive copies a message into b at dstOff and returns the tuple count:
// how a spill run builder lands a message.
func (b *tupleBuf) receive(dstOff uint64, m tupleMsg) uint64 {
	cnt := uint64(len(m.lo))
	copy(b.lo[dstOff:dstOff+cnt], m.lo)
	copy(b.val[dstOff:dstOff+cnt], m.val)
	if b.hi != nil {
		copy(b.hi[dstOff:dstOff+cnt], m.hi)
	}
	return cnt
}
