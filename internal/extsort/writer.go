package extsort

import (
	"encoding/binary"
	"fmt"
	"os"
)

// SegInfo locates one run segment inside a run file: a run is cut into
// segments at caller-chosen tuple positions (key-range boundaries), each
// an independently decodable byte range.
type SegInfo struct {
	// Off is the absolute file offset of the segment's first block.
	Off int64
	// Len is the segment's encoded byte length.
	Len int64
	// Tuples is the segment's tuple count.
	Tuples uint64
}

// RunInfo describes one written run: its segments in order. Segments
// may be empty (Len 0) when a run holds no keys in a thread's bin range.
type RunInfo struct {
	Segs []SegInfo
}

// writeFlushTarget is the encode-buffer size at which the Writer hands the
// buffer to its flusher goroutine. Two buffers circulate, so encoding run
// i+1's blocks overlaps writing run i's (write-behind double buffering).
// Small blocks flush sooner, every flushBlocks blocks, so the buffers stay
// in proportion to the tuple memory they stage.
const (
	writeFlushTarget = 256 << 10
	flushBlocks      = 8
)

// flushTarget is the flush threshold for blocks of blockTuples tuples.
func flushTarget(blockTuples int, wide, compress bool) int {
	return min(writeFlushTarget, flushBlocks*maxBlockLen(blockTuples, wide, compress))
}

// Writer appends sorted runs to a run file. It is not safe for concurrent
// use.
type Writer struct {
	wide        bool
	compress    bool
	blockTuples int

	off     int64 // logical file offset of the next encoded byte
	flushAt int   // flushTarget of the blocks
	cur     []byte
	free    chan []byte
	work    chan []byte
	done    chan struct{}
	err     error // flusher's first write error, read after done closes
	f       *os.File
}

// NewWriter writes the format header and starts the double-buffered
// flusher. blockTuples is the maximum tuples per encoded block — the unit
// of merge read-ahead and of decode memory on the way back in. The two
// encode buffers are sized once, to the flush target plus one block, so
// appending runs never grows them.
func NewWriter(f *os.File, wide, compress bool, blockTuples int) (*Writer, error) {
	if compress && wide {
		return nil, fmt.Errorf("extsort: varint/delta compression supports 64-bit keys only")
	}
	if blockTuples < 1 {
		return nil, fmt.Errorf("extsort: blockTuples %d < 1", blockTuples)
	}
	h := EncodeHeader(wide, compress)
	if _, err := f.Write(h[:]); err != nil {
		return nil, err
	}
	w := &Writer{
		wide: wide, compress: compress, blockTuples: blockTuples,
		off: HeaderLen, flushAt: flushTarget(blockTuples, wide, compress), f: f,
		free: make(chan []byte, 2), work: make(chan []byte, 2), done: make(chan struct{}),
	}
	bufCap := w.flushAt + maxBlockLen(blockTuples, wide, compress)
	w.cur = make([]byte, 0, bufCap)
	w.free <- make([]byte, 0, bufCap)
	// The channel is passed in, not read from the field: Close nils w.work
	// after closing it, and the goroutine may not have started by then.
	go w.flusher(w.work)
	return w, nil
}

// maxBlockLen bounds the encoded size of one block of n tuples.
func maxBlockLen(n int, wide, compress bool) int {
	payload := rawPayloadLen(n, wide)
	if compress {
		payload = n * (binary.MaxVarintLen64 + 4)
	}
	return 2*binary.MaxVarintLen64 + payload
}

// flusher drains filled encode buffers to the file in order.
func (w *Writer) flusher(work <-chan []byte) {
	defer close(w.done)
	for buf := range work {
		if w.err == nil && len(buf) > 0 {
			if _, err := w.f.Write(buf); err != nil {
				w.err = err
			}
		}
		w.free <- buf[:0]
	}
}

// flush hands the current encode buffer to the flusher and takes the spare.
func (w *Writer) flush() {
	w.work <- w.cur
	w.cur = <-w.free
}

// WriteRun appends one sorted run, cut into len(cuts)-1 segments: segment d
// covers tuples [cuts[d], cuts[d+1]). hi must be nil exactly in 64-bit
// mode. The returned RunInfo locates every segment for its readers.
func (w *Writer) WriteRun(lo, hi []uint64, val []uint32, cuts []uint64) (RunInfo, error) {
	info := RunInfo{Segs: make([]SegInfo, len(cuts)-1)}
	for d := 0; d+1 < len(cuts); d++ {
		segStart := w.off
		for p := cuts[d]; p < cuts[d+1]; p += uint64(w.blockTuples) {
			q := p + uint64(w.blockTuples)
			if q > cuts[d+1] {
				q = cuts[d+1]
			}
			var bhi []uint64
			if hi != nil {
				bhi = hi[p:q]
			}
			before := len(w.cur)
			w.cur = AppendBlock(w.cur, lo[p:q], bhi, val[p:q], w.compress)
			w.off += int64(len(w.cur) - before)
			if len(w.cur) >= w.flushAt {
				w.flush()
			}
		}
		info.Segs[d] = SegInfo{
			Off:    segStart,
			Len:    w.off - segStart,
			Tuples: cuts[d+1] - cuts[d],
		}
	}
	return info, w.writeErr()
}

// writeErr reports the flusher's first error without blocking.
func (w *Writer) writeErr() error {
	select {
	case <-w.done:
		return w.err
	default:
		return nil
	}
}

// BytesWritten returns the total encoded bytes (header included) queued so
// far.
func (w *Writer) BytesWritten() int64 { return w.off }

// Close flushes everything and joins the flusher. It does not close the
// underlying file (the caller owns it; merge readers still need it).
// Idempotent.
func (w *Writer) Close() error {
	if w.work == nil {
		return w.err
	}
	w.work <- w.cur
	close(w.work)
	w.work = nil
	w.cur = nil
	<-w.done
	return w.err
}
