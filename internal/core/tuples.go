package core

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

// view returns t's tuples [a, b) as a tupleBuf of their own.
func (t *tupleBuf) view(a, b uint64) tupleBuf {
	v := tupleBuf{lo: t.lo[a:b:b], val: t.val[a:b:b]}
	if t.hi != nil {
		v.hi = t.hi[a:b:b]
	}
	return v
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
