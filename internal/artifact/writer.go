package artifact

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"metaprep/internal/container"
	"metaprep/internal/extsort"
)

// DefaultBlockTuples is the encoded-block granularity for artifacts written
// tuple-at-a-time (set operations, incremental merge tees). The pipeline
// emit path instead inherits the extsort writer's block size so spilled
// runs copy in verbatim.
const DefaultBlockTuples = 4096

// Writer streams an artifact to disk: sections in one pass, TOC at the end,
// then a durable commit onto the target path. Not safe for concurrent use.
// On any error the Writer is dead; Abort (safe after Finish) removes the
// temp file.
type Writer struct {
	path string
	f    *os.File
	bw   *bufio.Writer
	c    *container.Writer
	done bool

	// Tuple-at-a-time k-mer buffering.
	wide        bool
	compress    bool
	blockTuples int
	kLo, kHi    []uint64
	kVal        []uint32
	kTuples     uint64
	scratch     []byte
}

// Create opens a Writer targeting path. The artifact is assembled in a temp
// file beside it and committed into place by Finish, so a crashed or
// aborted write never leaves a partial artifact at path.
func Create(path string) (*Writer, error) {
	f, err := container.CreateTemp(path)
	if err != nil {
		return nil, fmt.Errorf("artifact: create %s: %w", path, err)
	}
	w := &Writer{path: path, f: f, bw: bufio.NewWriterSize(f, 256<<10)}
	w.c = spec.NewWriter(w.bw)
	return w, nil
}

// BeginKmers opens the k-mer section. blockTuples bounds tuples per encoded
// block and must match the blocks later copied in via CopyBlocks.
func (w *Writer) BeginKmers(wide, compress bool, blockTuples int) error {
	if err := w.c.Err(); err != nil {
		return err
	}
	if compress && wide {
		return w.c.Fail(fmt.Errorf("artifact: varint/delta compression supports 64-bit keys only"))
	}
	if blockTuples < 1 {
		return w.c.Fail(fmt.Errorf("artifact: blockTuples %d < 1", blockTuples))
	}
	w.wide, w.compress, w.blockTuples = wide, compress, blockTuples
	var fl uint8
	if wide {
		fl |= 1
	}
	if compress {
		fl |= 2
	}
	w.c.Begin(secKmers, fl)
	return nil
}

// CopyBlocks copies n bytes of already-encoded extsort blocks (holding
// tuples sorted tuples, encoded with the Begin parameters) into the k-mer
// section. The pipeline uses this to splice its per-thread part files
// straight into the artifact without re-encoding.
func (w *Writer) CopyBlocks(r io.Reader, n int64, tuples uint64) error {
	if err := w.flushKmerBlock(); err != nil {
		return err
	}
	if _, err := io.CopyN(w.c, r, n); err != nil {
		return w.c.Fail(fmt.Errorf("artifact: copy blocks: %w", err))
	}
	w.kTuples += tuples
	return nil
}

// Tuple appends one sorted tuple to the k-mer section, buffering into
// blocks of blockTuples. hi is ignored unless the section is wide.
func (w *Writer) Tuple(hi, lo uint64, val uint32) error {
	if err := w.c.Err(); err != nil {
		return err
	}
	w.kLo = append(w.kLo, lo)
	if w.wide {
		w.kHi = append(w.kHi, hi)
	}
	w.kVal = append(w.kVal, val)
	w.kTuples++
	if len(w.kLo) >= w.blockTuples {
		return w.flushKmerBlock()
	}
	return nil
}

func (w *Writer) flushKmerBlock() error {
	if len(w.kLo) == 0 {
		return w.c.Err()
	}
	w.scratch = extsort.AppendBlock(w.scratch[:0], w.kLo, w.kHi, w.kVal, w.compress)
	w.c.Write(w.scratch)
	w.kLo = w.kLo[:0]
	w.kHi = w.kHi[:0]
	w.kVal = w.kVal[:0]
	return w.c.Err()
}

// EndKmers closes the k-mer section, flushing any partial block.
func (w *Writer) EndKmers() error {
	if err := w.flushKmerBlock(); err != nil {
		return err
	}
	w.c.End(w.kTuples)
	return w.c.Err()
}

// Labels writes the component label section (one uint32 per read).
func (w *Writer) Labels(labels []uint32) error {
	if err := w.c.Err(); err != nil {
		return err
	}
	w.c.Begin(secLabels, 0)
	buf := make([]byte, 4<<10)
	for off := 0; off < len(labels); {
		n := 0
		for off < len(labels) && n+4 <= len(buf) {
			binary.LittleEndian.PutUint32(buf[n:], labels[off])
			n += 4
			off++
		}
		w.c.Write(buf[:n])
	}
	w.c.End(uint64(len(labels)))
	return w.c.Err()
}

// Hist writes the k-mer frequency histogram section.
func (w *Writer) Hist(hist []uint64) error {
	if err := w.c.Err(); err != nil {
		return err
	}
	w.c.Begin(secHist, 0)
	buf := make([]byte, 8*len(hist))
	for i, v := range hist {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	w.c.Write(buf)
	w.c.End(uint64(len(hist)))
	return w.c.Err()
}

// Tuples returns the number of tuples written to the k-mer section so far.
func (w *Writer) Tuples() uint64 { return w.kTuples }

// BytesWritten returns the bytes emitted so far (final size after Finish).
func (w *Writer) BytesWritten() int64 { return w.c.Offset() }

// Finish writes the meta section and trailer and commits the temp file
// onto the target path (container.Commit). meta's encoding fields (Wide,
// Compress, BlockTuples, Tuples) are overwritten from what was actually
// written.
func (w *Writer) Finish(meta Meta) error {
	if err := w.c.Err(); err != nil {
		return err
	}
	meta.Wide, meta.Compress = w.wide, w.compress
	meta.BlockTuples = w.blockTuples
	meta.Tuples = w.kTuples
	mj, err := json.Marshal(meta)
	if err != nil {
		return w.c.Fail(err)
	}
	w.c.Begin(secMeta, 0)
	w.c.Write(mj)
	w.c.End(0)
	err = w.c.Finish()
	if err == nil {
		err = w.bw.Flush()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = container.Commit(w.f.Name(), w.path)
	}
	if err != nil {
		os.Remove(w.f.Name())
		return w.c.Fail(err)
	}
	w.done = true
	return nil
}

// Abort discards the temp file. Safe to defer alongside Finish: it is a
// no-op once Finish has succeeded.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.f.Close()
	os.Remove(w.f.Name())
}
