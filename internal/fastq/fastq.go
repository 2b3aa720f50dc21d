// Package fastq implements reading, writing and logical chunking of FASTQ
// sequence files, the input and output format of the METAPREP pipeline.
//
// A FASTQ record is four lines: an @-prefixed header, the base sequence, a
// +-prefixed separator, and a quality string of the same length as the
// sequence. The pipeline never interprets quality values; it carries them
// through to the partitioned output files.
//
// Paired-end data is handled in interleaved form: records 2i and 2i+1 are
// the two mates of pair i and share a single global read ID, as required by
// §3.2 of the paper ("we use a single read identifier for both ends of a
// paired-end read"). The Interleave helper converts two mate files into
// this form.
package fastq

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
)

// Record is a single FASTQ entry. The byte slices returned by Reader.Next
// are views into an internal buffer and are only valid until the following
// Next call; use Clone to retain one.
type Record struct {
	// ID is the header line without the leading '@'.
	ID []byte
	// Seq is the base sequence (typically ACGT and N).
	Seq []byte
	// Qual is the per-base quality string, the same length as Seq.
	Qual []byte
}

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	return Record{
		ID:   append([]byte(nil), r.ID...),
		Seq:  append([]byte(nil), r.Seq...),
		Qual: append([]byte(nil), r.Qual...),
	}
}

// Bytes appends the four-line FASTQ encoding of the record to dst and
// returns the extended slice.
func (r Record) Bytes(dst []byte) []byte {
	dst = append(dst, '@')
	dst = append(dst, r.ID...)
	dst = append(dst, '\n')
	dst = append(dst, r.Seq...)
	dst = append(dst, "\n+\n"...)
	dst = append(dst, r.Qual...)
	dst = append(dst, '\n')
	return dst
}

// ErrFormat reports malformed FASTQ input.
var ErrFormat = errors.New("fastq: malformed input")

// Reader streams FASTQ records from an io.Reader and tracks byte offsets,
// which the index builder uses to place chunk boundaries at record starts.
type Reader struct {
	br  *bufio.Reader
	rec Record
	// off is the byte offset of the next unread record relative to the
	// start of the underlying reader.
	off int64
	// n is the number of records returned so far.
	n int64
	// lineNL and lineCR describe the last readLine call: whether the line
	// was '\n'-terminated and whether a trailing '\r' was stripped.
	lineNL, lineCR bool
	// verbatim reports whether the last record's on-disk bytes equal its
	// canonical Record.Bytes encoding (see Verbatim).
	verbatim bool
}

// NewReader returns a Reader consuming r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 256<<10)}
}

// Offset returns the byte offset of the next unread record.
func (r *Reader) Offset() int64 { return r.off }

// Count returns the number of records read so far.
func (r *Reader) Count() int64 { return r.n }

// readLine reads one newline-terminated line, stripping the trailing '\n'
// (and '\r' for CRLF input), appending into buf and returning the line.
func (r *Reader) readLine() ([]byte, error) {
	r.lineNL, r.lineCR = false, false
	line, err := r.br.ReadSlice('\n')
	n := len(line)
	if err == bufio.ErrBufferFull {
		// Very long line: fall back to accumulation.
		acc := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			acc = append(acc, line...)
		}
		n = len(acc)
		line = acc
	}
	if err != nil {
		if err == io.EOF && n > 0 {
			// Final line without trailing newline (still strip a stray '\r'
			// so CRLF input parses identically with or without the last LF).
			r.off += int64(n)
			if line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
				r.lineCR = true
			}
			return line, nil
		}
		return nil, err
	}
	r.off += int64(n)
	r.lineNL = true
	line = line[:len(line)-1]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
		r.lineCR = true
	}
	return line, nil
}

// Next returns the next record, or io.EOF after the last one. The returned
// record's slices are valid only until the following Next call.
func (r *Reader) Next() (Record, error) {
	hdr, err := r.readLine()
	if err != nil {
		return Record{}, err
	}
	verb := r.lineNL && !r.lineCR
	if len(hdr) == 0 || hdr[0] != '@' {
		return Record{}, fmt.Errorf("%w: record %d: header %q does not start with '@'", ErrFormat, r.n, clip(hdr))
	}
	r.rec.ID = append(r.rec.ID[:0], hdr[1:]...)
	seq, err := r.readLine()
	if err != nil {
		return Record{}, fmt.Errorf("%w: record %d: truncated after header", ErrFormat, r.n)
	}
	verb = verb && r.lineNL && !r.lineCR
	r.rec.Seq = append(r.rec.Seq[:0], seq...)
	sep, err := r.readLine()
	if err != nil || len(sep) == 0 || sep[0] != '+' {
		return Record{}, fmt.Errorf("%w: record %d: bad '+' separator line", ErrFormat, r.n)
	}
	verb = verb && r.lineNL && !r.lineCR && len(sep) == 1
	qual, err := r.readLine()
	if err != nil {
		return Record{}, fmt.Errorf("%w: record %d: truncated quality line", ErrFormat, r.n)
	}
	verb = verb && r.lineNL && !r.lineCR
	if len(qual) != len(seq) {
		return Record{}, fmt.Errorf("%w: record %d: quality length %d != sequence length %d",
			ErrFormat, r.n, len(qual), len(seq))
	}
	r.rec.Qual = append(r.rec.Qual[:0], qual...)
	r.verbatim = verb
	r.n++
	return r.rec, nil
}

// Verbatim reports whether the record most recently returned by Next was
// stored in canonical form — '\n'-only line endings, a bare '+' separator,
// and a trailing newline — i.e. its on-disk bytes equal Record.Bytes. The
// index builder records this per chunk so the zero-copy CC-I/O path can blit
// whole chunks without re-parsing them.
func (r *Reader) Verbatim() bool { return r.verbatim }

func clip(b []byte) []byte {
	if len(b) > 40 {
		return b[:40]
	}
	return b
}

// Writer buffers and writes FASTQ records.
type Writer struct {
	bw    *bufio.Writer
	n     int64
	bytes int64
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 256<<10)}
}

// Write appends one record.
func (w *Writer) Write(rec Record) error {
	w.n++
	buf := w.bw.AvailableBuffer()
	n, err := w.bw.Write(rec.Bytes(buf))
	w.bytes += int64(n)
	return err
}

// WriteRawN appends a contiguous span of n canonical records in one write —
// the run-coalesced blit of the zero-copy CC-I/O path, which batches every
// adjacent record bound for the same output file into a single copy. raw
// must be exactly n records in canonical form (ChunkScanner.NextRaw's
// verbatim contract), so Count and BytesWritten stay consistent with Write.
func (w *Writer) WriteRawN(raw []byte, n int64) error {
	w.n += n
	m, err := w.bw.Write(raw)
	w.bytes += int64(m)
	return err
}

// Count returns the number of records written.
func (w *Writer) Count() int64 { return w.n }

// BytesWritten returns the serialized size of every record written so far
// (buffered or flushed) — the CC-I/O output-volume figure the pipeline's
// counter snapshot reports.
func (w *Writer) BytesWritten() int64 { return w.bytes }

// Flush writes any buffered data to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Interleave merges two mate files (streams) into interleaved paired FASTQ
// on w: mate1[i] then mate2[i] for each pair i. It returns the number of
// pairs written, and an error if the streams have different record counts.
func Interleave(mate1, mate2 io.Reader, w io.Writer) (int64, error) {
	r1, r2 := NewReader(mate1), NewReader(mate2)
	out := NewWriter(w)
	var pairs int64
	for {
		a, err1 := r1.Next()
		b, err2 := r2.Next()
		if err1 == io.EOF && err2 == io.EOF {
			return pairs, out.Flush()
		}
		if err1 != nil || err2 != nil {
			if err1 == io.EOF || err2 == io.EOF {
				return pairs, fmt.Errorf("%w: mate files have different record counts", ErrFormat)
			}
			if err1 != nil {
				return pairs, err1
			}
			return pairs, err2
		}
		if err := out.Write(a); err != nil {
			return pairs, err
		}
		if err := out.Write(b); err != nil {
			return pairs, err
		}
		pairs++
	}
}

// Equal reports whether two records have identical ID, sequence and quality.
func Equal(a, b Record) bool {
	return bytes.Equal(a.ID, b.ID) && bytes.Equal(a.Seq, b.Seq) && bytes.Equal(a.Qual, b.Qual)
}

// Open opens a FASTQ file for streaming, transparently decompressing
// gzip-compressed inputs (".gz" suffix or gzip magic bytes). The returned
// ReadCloser must be closed by the caller.
//
// Only the streaming consumers (normalization, counting, assembly,
// interleaving) accept gzip: the pipeline itself requires uncompressed
// files because FASTQPart chunking needs random access (§3.1.2).
func Open(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(f, 64<<10)
	magic, err := br.Peek(2)
	if err == nil && magic[0] == 0x1F && magic[1] == 0x8B {
		gz, err := gzip.NewReader(br)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fastq: %s: %w", path, err)
		}
		return &gzFile{gz: gz, f: f}, nil
	}
	return &bufFile{br: br, f: f}, nil
}

// gzFile couples a gzip reader with its underlying file for Close.
type gzFile struct {
	gz *gzip.Reader
	f  *os.File
}

func (g *gzFile) Read(p []byte) (int, error) { return g.gz.Read(p) }
func (g *gzFile) Close() error {
	gerr := g.gz.Close()
	ferr := g.f.Close()
	if gerr != nil {
		return gerr
	}
	return ferr
}

// bufFile couples the peeked buffered reader with its file.
type bufFile struct {
	br *bufio.Reader
	f  *os.File
}

func (b *bufFile) Read(p []byte) (int, error) { return b.br.Read(p) }
func (b *bufFile) Close() error               { return b.f.Close() }
