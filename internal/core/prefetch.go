package core

import (
	"fmt"
	"os"
	"time"

	"metaprep/internal/index"
	"metaprep/internal/obsv"
)

// prefetch.go implements the per-thread chunk prefetcher behind KmerGen's
// overlapped I/O: a single reader goroutine streams the thread's chunk list
// through a small ring of reusable buffers, so chunk i+1 (up to i+depth) is
// read from disk while the owning thread enumerates k-mers from chunk i.
// Buffers are handed back and forth over channels, which both bounds memory
// at depth+1 chunk buffers per thread and establishes the happens-before
// edges the race detector checks.

// fetchedChunk is one filled buffer travelling from the reader goroutine to
// the consuming thread.
type fetchedChunk struct {
	ci  int
	buf []byte
	err error
}

// chunkFetcher yields a thread's chunks in order. With depth 0 it is a
// plain serial loop (what prefetchDepth selects on a single-CPU host):
// next() reads synchronously.
// With depth ≥ 1 an async reader keeps up to depth chunks in flight.
type chunkFetcher struct {
	chunks []int
	idx    *index.Index
	files  []*os.File

	// Tracing identity of the owning thread's prefetch track (obs may be
	// nil; RecordSpan on a nil collector is a no-op).
	obs      *obsv.Collector
	pid, tid int

	// Serial path state.
	pos int
	buf []byte

	// Overlapped path channels; nil on the serial path.
	filled chan fetchedChunk
	free   chan []byte
	stop   chan struct{}
	// stopped latches close() so both the consuming thread and the task's
	// deferred cleanup may call it (the output fetchers are closed by
	// whichever path runs — never concurrently, par.Run joins first).
	stopped bool
}

// newChunkFetcher starts fetching the given chunk list. depth is the number
// of chunks read ahead of the consumer (0 disables the reader goroutine).
// bufs are the depth+1 buffers to read into — the thread's, reused from
// fetcher to fetcher; a missing or short one is grown as chunks need.
func newChunkFetcher(chunks []int, idx *index.Index, files []*os.File, depth int, bufs [][]byte,
	obs *obsv.Collector, pid, tid int) *chunkFetcher {
	f := &chunkFetcher{chunks: chunks, idx: idx, files: files, obs: obs, pid: pid, tid: tid}
	buf := func(i int) []byte {
		if i < len(bufs) {
			return bufs[i]
		}
		return nil
	}
	if depth <= 0 || len(chunks) < 2 {
		f.buf = buf(0)
		return f
	}
	// depth+1 buffers circulate: one being parsed, depth filled or filling.
	f.filled = make(chan fetchedChunk, depth)
	f.free = make(chan []byte, depth+1)
	f.stop = make(chan struct{})
	for i := 0; i <= depth; i++ {
		f.free <- buf(i)
	}
	go f.reader()
	return f
}

// reader runs in the prefetch goroutine: it acquires a free buffer, fills
// it with the next chunk and passes it on, until the list is exhausted or
// the consumer closes stop (completion or error abort).
func (f *chunkFetcher) reader() {
	defer close(f.filled)
	for _, ci := range f.chunks {
		var buf []byte
		select {
		case <-f.stop: // checked first: a closed fetcher reads no more
			return
		default:
		}
		select {
		case buf = <-f.free:
		case <-f.stop:
			return
		}
		t0 := time.Now()
		buf, err := f.readChunk(ci, buf)
		f.obs.RecordSpan(f.pid, f.tid, "detail", "chunk-read", t0, time.Since(t0), nil)
		select {
		case f.filled <- fetchedChunk{ci: ci, buf: buf, err: err}:
		case <-f.stop:
			return
		}
		if err != nil {
			return
		}
	}
}

// readChunk loads chunk ci into buf, growing it as needed.
func (f *chunkFetcher) readChunk(ci int, buf []byte) ([]byte, error) {
	c := &f.idx.Chunks[ci]
	if int64(cap(buf)) < c.Size {
		buf = make([]byte, c.Size)
	}
	buf = buf[:c.Size]
	if _, err := f.files[c.File].ReadAt(buf, c.Offset); err != nil {
		return buf, fmt.Errorf("core: reading chunk %d: %w", ci, err)
	}
	return buf, nil
}

// next returns the next chunk index and its filled buffer, or (0, nil, nil)
// after the last chunk. The caller must hand the buffer back with release
// once it has finished parsing it.
func (f *chunkFetcher) next() (int, []byte, error) {
	if f.filled == nil {
		if f.pos >= len(f.chunks) {
			return 0, nil, nil
		}
		ci := f.chunks[f.pos]
		f.pos++
		buf, err := f.readChunk(ci, f.buf)
		f.buf = buf
		if err != nil {
			return 0, nil, err
		}
		return ci, buf, nil
	}
	fc, ok := <-f.filled
	if !ok {
		return 0, nil, nil
	}
	return fc.ci, fc.buf, fc.err
}

// release returns a consumed buffer to the prefetch ring. The free channel
// holds capacity for every circulating buffer, so this never blocks.
func (f *chunkFetcher) release(buf []byte) {
	if f.filled == nil {
		return
	}
	f.free <- buf
}

// close stops the reader goroutine and waits for it to exit, so the
// buffers are free for the thread's next fetcher once close returns. It is
// safe to call on any path, including after errors and repeatedly, and
// leaves the fetcher drained.
func (f *chunkFetcher) close() {
	if f.stop != nil && !f.stopped {
		f.stopped = true
		close(f.stop)
		for range f.filled {
		}
	}
}
