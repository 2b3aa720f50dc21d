package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"metaprep/internal/container"
)

// io.go serializes the index tables to disk. The paper writes merHist and
// FASTQPart "to disk in binary format" so a dataset's index can be reused
// across runs and machines; this format does the same: a magic header,
// fixed-width little-endian fields, and raw histogram arrays.
//
// Format version 3 (written) stores each chunk histogram as it is held in
// memory: 4^m count bytes, then a u32 overflow-entry count and that many
// (u32 bin, u32 count) pairs in ascending bin order, one per bin whose byte
// is 255. Version 2 (still read) stores 4^m u32 counts per chunk; ReadFrom
// compacts them on load. Version 2 added the per-chunk flags word (bit 0:
// Canonical).

// fileMagic identifies a serialized Index; the trailing digit is the format
// version.
const (
	fileMagic   = "MPREPIX3"
	fileMagicV2 = "MPREPIX2"
)

// ErrCorrupt is wrapped by every error ReadFrom returns for bytes that are
// not a well-formed index: bad magic, a truncated table, or a field outside
// its range.
var ErrCorrupt = errors.New("index: corrupt index file")

// readStep bounds each allocation ReadFrom makes ahead of the bytes that
// fill it, so a header promising more than the stream holds costs at most
// twice what the stream really holds.
const readStep = 1 << 16

// Write serializes the index to w in the current format.
func (idx *Index) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	le := binary.LittleEndian
	writeU64 := func(v uint64) { var b [8]byte; le.PutUint64(b[:], v); bw.Write(b[:]) }
	writeU32 := func(v uint32) { var b [4]byte; le.PutUint32(b[:], v); bw.Write(b[:]) }

	paired := uint64(0)
	if idx.Opts.Paired {
		paired = 1
	}
	if idx.Opts.MatePairs {
		paired = 2
	}
	writeU64(uint64(idx.Opts.K))
	writeU64(uint64(idx.Opts.M))
	writeU64(uint64(idx.Opts.ChunkSize))
	writeU64(paired)
	writeU64(uint64(len(idx.Files)))
	for _, f := range idx.Files {
		writeU64(uint64(len(f)))
		bw.WriteString(f)
	}
	writeU64(uint64(idx.Reads))
	writeU64(uint64(idx.Records))
	writeU64(uint64(idx.TotalBases))
	writeU64(idx.TotalKmers)
	for _, v := range idx.MerHist {
		writeU64(v)
	}
	writeU64(uint64(len(idx.Chunks)))
	for ci := range idx.Chunks {
		c := &idx.Chunks[ci]
		writeU32(uint32(c.File))
		writeU64(uint64(c.Offset))
		writeU64(uint64(c.Size))
		writeU32(c.FirstRead)
		writeU32(uint32(c.Records))
		var flags uint32
		if c.Canonical {
			flags |= 1
		}
		writeU32(flags)
		bw.Write(c.Hist.small)
		writeU32(uint32(len(c.Hist.over)))
		for _, o := range c.Hist.over {
			writeU32(o.bin)
			writeU32(o.count)
		}
	}
	return bw.Flush()
}

// ReadFrom deserializes an index written by Write, in format version 3 or
// 2. Every malformed input yields an error wrapping ErrCorrupt, and tables
// are allocated as their bytes arrive, so a corrupt count in a short file
// fails without a large allocation.
func ReadFrom(r io.Reader) (*Index, error) {
	br := bufio.NewReaderSize(r, readStep)
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, corrupt("reading magic: %w", err)
	}
	v2 := string(magic) == fileMagicV2
	if !v2 && string(magic) != fileMagic {
		return nil, corrupt("bad magic %q (not an index file or wrong version)", magic)
	}
	le := binary.LittleEndian
	var rerr error
	readU64 := func() uint64 {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil && rerr == nil {
			rerr = err
		}
		return le.Uint64(b[:])
	}
	readU32 := func() uint32 {
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil && rerr == nil {
			rerr = err
		}
		return le.Uint32(b[:])
	}

	idx := &Index{}
	idx.Opts.K = int(readU64())
	idx.Opts.M = int(readU64())
	idx.Opts.ChunkSize = int64(readU64())
	pairMode := readU64()
	idx.Opts.Paired = pairMode == 1
	idx.Opts.MatePairs = pairMode == 2
	if rerr != nil {
		return nil, corrupt("truncated header: %w", rerr)
	}
	if pairMode > 2 {
		return nil, corrupt("pairing mode %d", pairMode)
	}
	if err := idx.Opts.Validate(); err != nil {
		return nil, corrupt("header: %w", err)
	}
	nf := readU64()
	if nf > 1<<20 {
		return nil, corrupt("implausible file count %d", nf)
	}
	for i := uint64(0); i < nf; i++ {
		n := readU64()
		if n > 1<<16 || rerr != nil {
			return nil, corrupt("file table")
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, corrupt("truncated file table: %w", err)
		}
		idx.Files = append(idx.Files, string(buf))
	}
	reads := readU64()
	if reads > math.MaxUint32 {
		return nil, corrupt("read count %d", reads)
	}
	idx.Reads = uint32(reads)
	idx.Records = int64(readU64())
	idx.TotalBases = int64(readU64())
	idx.TotalKmers = readU64()
	bins := idx.Opts.Bins()
	raw, err := readBytes(br, 8*bins)
	if err != nil {
		return nil, corrupt("truncated m-mer histogram: %w", err)
	}
	idx.MerHist = make([]uint64, bins)
	for b := range idx.MerHist {
		idx.MerHist[b] = le.Uint64(raw[8*b:])
	}
	nc := readU64()
	if rerr != nil {
		return nil, corrupt("truncated tables: %w", rerr)
	}
	if nc > 1<<28 {
		return nil, corrupt("implausible chunk count %d", nc)
	}
	var counts []uint32
	if v2 {
		counts = make([]uint32, bins)
	}
	for ci := uint64(0); ci < nc; ci++ {
		var c Chunk
		c.File = int32(readU32())
		c.Offset = int64(readU64())
		c.Size = int64(readU64())
		c.FirstRead = readU32()
		c.Records = int32(readU32())
		flags := readU32()
		c.Canonical = flags&1 != 0
		if rerr != nil {
			return nil, corrupt("truncated chunk table: %w", rerr)
		}
		if c.File < 0 || int(c.File) >= len(idx.Files) || c.Offset < 0 || c.Size < 0 || c.Records < 0 || flags&^1 != 0 {
			return nil, corrupt("chunk %d: file %d, offset %d, size %d, records %d, flags %#x",
				ci, c.File, c.Offset, c.Size, c.Records, flags)
		}
		if v2 {
			raw, err := readBytes(br, 4*bins)
			if err != nil {
				return nil, corrupt("truncated chunk %d histogram: %w", ci, err)
			}
			for b := range counts {
				counts[b] = le.Uint32(raw[4*b:])
			}
			c.Hist = NewChunkHist(counts)
		} else if c.Hist, err = readChunkHist(br, bins); err != nil {
			return nil, corrupt("chunk %d histogram: %w", ci, err)
		}
		idx.Chunks = append(idx.Chunks, c)
	}
	if _, err := br.Peek(1); err == nil {
		return nil, corrupt("trailing bytes after the chunk table")
	} else if err != io.EOF {
		return nil, corrupt("reading past the chunk table: %w", err)
	}
	return idx, nil
}

// readChunkHist reads one version-3 chunk histogram and checks that its
// overflow table is exactly the saturated bins, in order, with counts that
// do not fit a byte — the form NewChunkHist builds, so Write reproduces it.
func readChunkHist(r io.Reader, bins int) (ChunkHist, error) {
	var h ChunkHist
	var err error
	if h.small, err = readBytes(r, bins); err != nil {
		return h, err
	}
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return h, err
	}
	n := int(binary.LittleEndian.Uint32(b[:]))
	saturated := 0
	for _, c := range h.small {
		if c == histSat {
			saturated++
		}
	}
	if n != saturated {
		return h, fmt.Errorf("%d overflow entries for %d saturated bins", n, saturated)
	}
	if n == 0 {
		return h, nil
	}
	raw, err := readBytes(r, overflowBytes*n)
	if err != nil {
		return h, err
	}
	h.over = make([]histOverflow, n)
	for i := range h.over {
		o := histOverflow{binary.LittleEndian.Uint32(raw[8*i:]), binary.LittleEndian.Uint32(raw[8*i+4:])}
		if int64(o.bin) >= int64(bins) || h.small[o.bin] != histSat || o.count < histSat ||
			(i > 0 && o.bin <= h.over[i-1].bin) {
			return h, fmt.Errorf("overflow entry %d (bin %d, count %d) out of order or range", i, o.bin, o.count)
		}
		h.over[i] = o
	}
	return h, nil
}

// readBytes reads exactly n bytes, growing its buffer as they arrive: at
// most readStep is allocated before any byte is read, and each growth at
// most doubles what has been read.
func readBytes(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readStep))
	for {
		k, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, err
		}
		if len(buf) == n {
			return buf, nil
		}
		grown := make([]byte, len(buf), min(n, 2*cap(buf)))
		copy(grown, buf)
		buf = grown
	}
}

// Save writes the index to path atomically and durably through
// container.WriteFile: a crash leaves either the old index or the new one,
// and the temp file is removed on any failure.
func (idx *Index) Save(path string) error {
	return container.WriteFile(path, idx.Write)
}

// Load reads an index from path.
func Load(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrom(f)
}
