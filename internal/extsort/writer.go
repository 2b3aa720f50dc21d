package extsort

import (
	"encoding/binary"
	"fmt"
	"os"
)

// SegInfo locates one run segment inside a spill file: segment d of a run
// holds the run's tuples whose keys fall in LocalCC thread d's bin range,
// so the merge phase can hand each thread an independently decodable byte
// range per run.
type SegInfo struct {
	// Off is the absolute file offset of the segment's first block.
	Off int64
	// Len is the segment's encoded byte length.
	Len int64
	// Tuples is the segment's tuple count.
	Tuples uint64
}

// RunInfo describes one spilled run: its segments in thread order. Segments
// may be empty (Len 0) when a run holds no keys in a thread's bin range.
type RunInfo struct {
	Segs []SegInfo
}

// writeFlushTarget is the encode-buffer size at which the Writer hands the
// buffer to its flusher goroutine. Two buffers circulate, so encoding run
// i+1's blocks overlaps writing run i's — the write-behind double buffering
// that hides spill I/O behind the receive+sort pipeline. Small blocks (a
// small spill budget) flush sooner, every flushBlocks blocks, so the
// buffers stay in proportion to the tuple memory they stage.
const (
	writeFlushTarget = 256 << 10
	flushBlocks      = 8
)

// flushTarget is the flush threshold for blocks of blockTuples tuples.
func flushTarget(blockTuples int, wide, compress bool) int {
	return min(writeFlushTarget, flushBlocks*maxBlockLen(blockTuples, wide, compress))
}

// Writer appends sorted runs to a spill file. It is not safe for concurrent
// use; the pipeline drives one Writer per rank from its spill worker
// goroutine, re-pointed at each pass's run file with Reset.
type Writer struct {
	wide        bool
	compress    bool
	blockTuples int

	off     int64 // logical file offset of the next encoded byte
	flushAt int   // flushTarget of the current blocks
	cur     []byte
	free    chan []byte
	work    chan []byte
	done    chan struct{}
	err     error // flusher's first write error, read after done closes
	f       *os.File
}

// NewWriter writes the format header and readies the double-buffered
// flusher. blockTuples is the maximum tuples per encoded block — the unit
// of merge read-ahead and of decode memory on the way back in. The two
// encode buffers are sized once, to the flush target plus one block, so
// appending runs never grows them (a Reset to larger blocks grows them
// once).
func NewWriter(f *os.File, wide, compress bool, blockTuples int) (*Writer, error) {
	if compress && wide {
		return nil, fmt.Errorf("extsort: varint/delta compression supports 64-bit keys only")
	}
	w := &Writer{wide: wide, compress: compress, free: make(chan []byte, 2)}
	n := max(blockTuples, 1)
	bufCap := flushTarget(n, wide, compress) + maxBlockLen(n, wide, compress)
	w.free <- make([]byte, 0, bufCap)
	w.free <- make([]byte, 0, bufCap)
	if err := w.Reset(f, blockTuples); err != nil {
		return nil, err
	}
	return w, nil
}

// Reset closes the current file's stream, if still open (dropping its
// error: a caller that needs it calls Close first), and starts a new
// spill file on f with blocks of at most blockTuples tuples, keeping the
// encode buffers.
func (w *Writer) Reset(f *os.File, blockTuples int) error {
	w.Close()
	if blockTuples < 1 {
		return fmt.Errorf("extsort: blockTuples %d < 1", blockTuples)
	}
	h := EncodeHeader(w.wide, w.compress)
	if _, err := f.Write(h[:]); err != nil {
		return err
	}
	w.f, w.blockTuples, w.off, w.err = f, blockTuples, HeaderLen, nil
	w.flushAt = flushTarget(blockTuples, w.wide, w.compress)
	w.work = make(chan []byte, 2)
	w.done = make(chan struct{})
	w.cur = <-w.free
	// The channel is passed in, not read from the field: Close nils w.work
	// after closing it, and the goroutine may not have started by then.
	go w.flusher(w.work)
	return nil
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
// mode. The returned RunInfo locates every segment for the merge phase.
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
// far — the spill volume counter's source.
func (w *Writer) BytesWritten() int64 { return w.off }

// Close flushes everything and joins the flusher; the encode buffers stay
// with the Writer for the next Reset. It does not close the underlying
// file (the caller owns it; merge readers still need it).
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
