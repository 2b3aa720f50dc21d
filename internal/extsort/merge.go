package extsort

import (
	"bufio"
	"encoding/binary"
	"io"
	"math/bits"
)

// segReadBufBytes caps each segment reader's file-I/O buffer. It is small:
// the budgeted quantity is decoded tuple memory (the Block ring), not this
// staging buffer, which holds at most two blocks' encoding and at least
// segReadMinBytes.
const (
	segReadBufBytes = 32 << 10
	segReadMinBytes = 4 << 10
)

// readBufSize is the file-I/O buffer size for blocks of maxTuples tuples.
func readBufSize(maxTuples int, wide, compress bool) int {
	return min(segReadBufBytes, max(segReadMinBytes, 2*maxBlockLen(maxTuples, wide, compress)))
}

// fetchedBlock travels from a SegReader's decode goroutine to its consumer.
type fetchedBlock struct {
	b   *Block
	err error
}

// SegReader streams one run segment's blocks in order, decoding ahead of
// the consumer on its own goroutine: a ring of 2 decoded Block buffers
// circulates over free/filled channels, so block i+1 is read and decoded
// from disk while the merger drains block i.
type SegReader struct {
	filled  chan fetchedBlock
	free    chan *Block
	stop    chan struct{}
	done    chan struct{} // closes when the decode goroutine has exited
	stopped bool

	sec *io.SectionReader
	br  *bufio.Reader
}

// NewSegReader starts the decode goroutine for one segment of f (a run or
// artifact file), decoding into two blocks of its own. maxTuples must be at
// least the writer's blockTuples; it bounds decode allocations.
func NewSegReader(f io.ReaderAt, seg SegInfo, wide, compress bool, maxTuples int) *SegReader {
	r := &SegReader{
		filled: make(chan fetchedBlock, 1),
		free:   make(chan *Block, 2),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		sec:    io.NewSectionReader(f, seg.Off, seg.Len),
	}
	r.br = bufio.NewReaderSize(r.sec, readBufSize(maxTuples, wide, compress))
	r.free <- &Block{}
	r.free <- &Block{}
	go r.run(seg.Tuples, wide, compress, maxTuples)
	return r
}

// run decodes the segment block by block through the buffered section
// reader and ships each decoded Block to the consumer.
func (r *SegReader) run(tuples uint64, wide, compress bool, maxTuples int) {
	defer close(r.done)
	defer close(r.filled)
	var payload []byte // compressed blocks only
	for remaining := tuples; remaining > 0; {
		var b *Block
		select {
		case <-r.stop: // checked first: a closed reader decodes no more
			return
		default:
		}
		select {
		case b = <-r.free:
		case <-r.stop:
			return
		}
		err := readBlock(r.br, wide, compress, maxTuples, &payload, b)
		if err == nil && uint64(b.Len()) > remaining {
			err = corrupt("segment overruns its %d-tuple extent", tuples)
		}
		if err == nil {
			remaining -= uint64(b.Len())
		}
		select {
		case r.filled <- fetchedBlock{b: b, err: err}:
		case <-r.stop:
			return
		}
		if err != nil {
			return
		}
	}
}

// readBlock reads and decodes one framed block from br. A raw block decodes
// straight from br's buffer into b; a compressed one goes through the
// payload scratch, since its length prefix is all that bounds its varints.
func readBlock(br *bufio.Reader, wide, compress bool, maxTuples int, payload *[]byte, b *Block) error {
	cnt, err := binary.ReadUvarint(br)
	if err != nil {
		return corrupt("reading block count: %v", err)
	}
	if cnt == 0 || cnt > uint64(maxTuples) {
		return corrupt("block count %d outside (0, %d]", cnt, maxTuples)
	}
	plen, err := binary.ReadUvarint(br)
	if err != nil {
		return corrupt("reading payload length: %v", err)
	}
	n := int(cnt)
	if !compress {
		if plen != uint64(rawPayloadLen(n, wide)) {
			return corrupt("raw payload %d bytes, want %d for %d tuples", plen, rawPayloadLen(n, wide), n)
		}
		b.resize(n, wide)
		err := readLE64(br, b.Lo)
		if err == nil && wide {
			err = readLE64(br, b.Hi)
		}
		if err == nil {
			err = readLE32(br, b.Val)
		}
		if err != nil {
			return corrupt("payload truncated: %v", err)
		}
		return nil
	}
	if plen > cnt*(binary.MaxVarintLen64+4) {
		return corrupt("payload length %d implausible for %d tuples", plen, cnt)
	}
	if uint64(cap(*payload)) < plen {
		*payload = make([]byte, plen)
	}
	*payload = (*payload)[:plen]
	if _, err := io.ReadFull(br, *payload); err != nil {
		return corrupt("payload truncated: %v", err)
	}
	return decodePayload(*payload, n, wide, compress, b)
}

// readLE64 fills dst with little-endian words decoded in place from br's
// buffer, refilling it as it drains.
func readLE64(br *bufio.Reader, dst []uint64) error {
	for len(dst) > 0 {
		n := min(len(dst), max(br.Buffered()/8, 1))
		p, err := br.Peek(8 * n)
		if err != nil {
			return err
		}
		for i := range dst[:n] {
			dst[i] = binary.LittleEndian.Uint64(p[8*i:])
		}
		br.Discard(8 * n)
		dst = dst[n:]
	}
	return nil
}

// readLE32 is readLE64 for 32-bit values.
func readLE32(br *bufio.Reader, dst []uint32) error {
	for len(dst) > 0 {
		n := min(len(dst), max(br.Buffered()/4, 1))
		p, err := br.Peek(4 * n)
		if err != nil {
			return err
		}
		for i := range dst[:n] {
			dst[i] = binary.LittleEndian.Uint32(p[4*i:])
		}
		br.Discard(4 * n)
		dst = dst[n:]
	}
	return nil
}

// Next returns the segment's next decoded block, nil at end of segment.
// The caller must hand the block back with Release before the ring can
// decode two blocks further ahead.
func (r *SegReader) Next() (*Block, error) {
	fb, ok := <-r.filled
	if !ok {
		return nil, nil
	}
	return fb.b, fb.err
}

// Release returns a consumed block to the decode ring. Never blocks: the
// free channel holds capacity for every circulating block.
func (r *SegReader) Release(b *Block) {
	if b != nil {
		r.free <- b
	}
}

// Close stops the decode goroutine and waits for it to exit, so no block
// is written after Close returns. Idempotent and safe on every path,
// including mid-stream cancellation.
func (r *SegReader) Close() {
	if !r.stopped {
		r.stopped = true
		close(r.stop)
	}
	<-r.done
}

// Merger streams the ascending key order of k segment readers — one per
// sorted run — via a loser tree: an internal node holds the loser of its
// subtree's match, so replacing the winner after each pull replays exactly
// one leaf-to-root path (⌈log₂k⌉ comparisons) instead of re-scanning all k
// heads. Ties break on run index, making the merged order deterministic.
//
// The tree is flat: node n's loser is stored as its key and its rank in
// parallel arrays, so a replay step compares the climbing tuple, held in
// locals, against two array loads and never visits a leaf. A live leaf's
// rank is its run index; an exhausted leaf takes rank k+leaf under an
// all-ones key, which orders it after every live tuple — a live all-ones
// key included, its rank being below k — without a separate "done" probe.
type Merger struct {
	rs    []*SegReader
	heads []head
	k     int
	wide  bool // 128-bit keys: treeHi and winHi take part in comparisons

	// tree[1..k-1]: the loser at each internal node. Leaf j hangs below
	// node (k+j)/2, which lays out a complete tournament for any k ≥ 1.
	treeHi, treeLo []uint64
	treeRank       []int32

	winHi, winLo uint64
	winRank      int32
	src          int // leaf index of the last tuple returned by Next
}

// head is one leaf's read cursor: its current block (nil once exhausted)
// and the position of its head tuple, the one entered in the tournament.
type head struct {
	b   *Block
	pos int
}

// NewMerger primes every reader and builds the initial tournament. The
// merger owns the readers' draining but not their lifetime: call Close on
// the readers (or Merger.Close) when done, on every path.
func NewMerger(rs []*SegReader) (*Merger, error) {
	k := len(rs)
	m := &Merger{
		rs: rs, heads: make([]head, k), k: k,
		treeHi: make([]uint64, k), treeLo: make([]uint64, k), treeRank: make([]int32, k),
	}
	// Play the tournament bottom-up over every node's winner; node k+j is
	// leaf j. Only the losers are kept.
	hi, lo, rank := make([]uint64, 2*k), make([]uint64, 2*k), make([]int32, 2*k)
	for j := range rs {
		var err error
		if hi[k+j], lo[k+j], rank[k+j], err = m.refill(j); err != nil {
			return nil, err
		}
		m.wide = m.wide || (m.heads[j].b != nil && m.heads[j].b.Hi != nil)
	}
	for n := k - 1; n >= 1; n-- {
		w, l := 2*n, 2*n+1
		if tupleLess(hi[l], lo[l], rank[l], hi[w], lo[w], rank[w]) {
			w, l = l, w
		}
		hi[n], lo[n], rank[n] = hi[w], lo[w], rank[w]
		m.treeHi[n], m.treeLo[n], m.treeRank[n] = hi[l], lo[l], rank[l]
	}
	if k > 0 {
		m.winHi, m.winLo, m.winRank = hi[1], lo[1], rank[1]
	}
	return m, nil
}

// tupleLess orders tournament entries by (hi, lo, rank).
func tupleLess(aHi, aLo uint64, aRank int32, bHi, bLo uint64, bRank int32) bool {
	if aHi != bHi {
		return aHi < bHi
	}
	if aLo != bLo {
		return aLo < bLo
	}
	return aRank < bRank
}

// refill moves leaf j to its reader's next block and returns the leaf's new
// tournament entry: the block's first tuple under rank j, or the exhausted
// sentinel. A reader error exhausts the leaf.
func (m *Merger) refill(j int) (hi, lo uint64, rank int32, err error) {
	h := &m.heads[j]
	m.rs[j].Release(h.b)
	h.b, err = m.rs[j].Next()
	h.pos = 0
	if err != nil {
		h.b = nil
	}
	if h.b == nil {
		return ^uint64(0), ^uint64(0), int32(m.k + j), err
	}
	if h.b.Hi != nil {
		hi = h.b.Hi[0]
	}
	return hi, h.b.Lo[0], int32(j), nil
}

// Next pulls the smallest remaining tuple. ok is false once every segment
// is exhausted.
func (m *Merger) Next() (hi, lo uint64, val uint32, ok bool, err error) {
	j := int(m.winRank)
	if j >= m.k {
		return 0, 0, 0, false, nil // k == 0, or the winner is a sentinel
	}
	m.src = j
	h := &m.heads[j]
	b, p := h.b, h.pos
	hi, lo, val = m.winHi, m.winLo, b.Val[p]

	// The leaf's successor enters the tournament.
	var nHi, nLo uint64
	nRank := int32(j)
	if p++; p < len(b.Lo) {
		h.pos = p
		nLo = b.Lo[p]
		if m.wide {
			nHi = b.Hi[p]
		}
		if nLo == lo && nHi == hi {
			// Same key from the same run: the leaf won with the lowest
			// rank among that key's holders and every other head is no
			// smaller, so it wins again and no node changes.
			return hi, lo, val, true, nil
		}
	} else {
		// A reader error surfaces after the replay, which retires the
		// leaf like any exhausted one and keeps the tree consistent.
		nHi, nLo, nRank, err = m.refill(j)
	}

	// Replay the leaf's path to the root: at each node the smaller of the
	// climbing tuple and the stored loser goes on, the other stays. Which
	// one is smaller is a coin toss on merged k-mer runs, so the step is
	// branch-free: the borrow out of (loser) − (climber), taken word by word
	// from rank up to the key's top word, is 1 exactly when the loser is
	// the smaller, and becomes the mask of a conditional swap.
	tLo, tRank := m.treeLo, m.treeRank
	if !m.wide {
		for n := (m.k + j) / 2; n >= 1; n /= 2 {
			l, r := tLo[n], tRank[n]
			_, lt := bits.Sub64(uint64(r), uint64(nRank), 0)
			_, lt = bits.Sub64(l, nLo, lt)
			tLo[n], nLo = swapIf(-lt, l, nLo)
			tRank[n], nRank = swapRankIf(-lt, r, nRank)
		}
		nHi = 0 // a sentinel's hi word never climbs in 64-bit mode
	} else {
		tHi := m.treeHi
		for n := (m.k + j) / 2; n >= 1; n /= 2 {
			h, l, r := tHi[n], tLo[n], tRank[n]
			_, lt := bits.Sub64(uint64(r), uint64(nRank), 0)
			_, lt = bits.Sub64(l, nLo, lt)
			_, lt = bits.Sub64(h, nHi, lt)
			tHi[n], nHi = swapIf(-lt, h, nHi)
			tLo[n], nLo = swapIf(-lt, l, nLo)
			tRank[n], nRank = swapRankIf(-lt, r, nRank)
		}
	}
	m.winHi, m.winLo, m.winRank = nHi, nLo, nRank
	if err != nil {
		return 0, 0, 0, false, err
	}
	return hi, lo, val, true, nil
}

// swapIf returns (b, a) when mask is all ones and (a, b) when it is zero.
func swapIf(mask, a, b uint64) (uint64, uint64) {
	x := (a ^ b) & mask
	return a ^ x, b ^ x
}

// swapRankIf is swapIf for ranks.
func swapRankIf(mask uint64, a, b int32) (int32, int32) {
	x := (a ^ b) & int32(mask)
	return a ^ x, b ^ x
}

// Src returns the leaf (reader) index that produced the last tuple Next
// returned. The incremental-artifact merge uses it to tell base tuples from
// delta tuples so delta read ids can be rebased.
func (m *Merger) Src() int { return m.src }

// Close closes every reader (stopping their decode goroutines).
func (m *Merger) Close() {
	for _, r := range m.rs {
		r.Close()
	}
}
