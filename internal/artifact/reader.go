package artifact

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"os"

	"metaprep/internal/container"
	"metaprep/internal/extsort"
)

// Reader opens an artifact for random-access section reads and streaming
// k-mer scans. The trailer, TOC, and meta section are parsed and verified
// by Open; other sections verify their CRC when read. Safe for concurrent
// section reads (all I/O is offset-based), but each Stream is single-user.
type Reader struct {
	f    *os.File
	path string
	size int64
	meta Meta
	toc  *container.TOC

	bytesRead int64
}

// Open parses and validates the artifact's framing: magic, trailer, TOC
// (CRC-checked), and the meta section. Structural problems return errors
// wrapping ErrBadArtifact.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &Reader{f: f, path: path}
	if err := r.load(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func (r *Reader) load() error {
	st, err := r.f.Stat()
	if err != nil {
		return err
	}
	r.size = st.Size()
	if r.toc, err = spec.Parse(r.f, r.size, r.path); err != nil {
		return err
	}
	r.bytesRead += container.HeaderLen + container.TrailerLen + int64(len(r.toc.Entries))*container.EntryLen

	mj, err := r.section(secMeta)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(mj, &r.meta); err != nil {
		return spec.Errorf(r.path, "meta", "bad JSON: %v", err)
	}
	if r.meta.BlockTuples < 1 {
		return spec.Errorf(r.path, "meta", "block_tuples %d < 1", r.meta.BlockTuples)
	}
	ke, err := r.toc.Section(secKmers)
	if err != nil {
		return err
	}
	wantFl := uint8(0)
	if r.meta.Wide {
		wantFl |= 1
	}
	if r.meta.Compress {
		wantFl |= 2
	}
	if ke.Flags != wantFl {
		return spec.Errorf(r.path, "kmers", "section flags %#x disagree with meta %#x", ke.Flags, wantFl)
	}
	return nil
}

// section reads and CRC-verifies one section in full.
func (r *Reader) section(id uint8) ([]byte, error) {
	e, err := r.toc.Section(id)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, e.Len)
	if _, err := r.f.ReadAt(buf, e.Off); err != nil {
		return nil, spec.Errorf(r.path, spec.SectionName(id), "read: %v", err)
	}
	if err := r.toc.Check(e, buf); err != nil {
		return nil, err
	}
	r.bytesRead += e.Len
	return buf, nil
}

// Meta returns the provenance record parsed by Open.
func (r *Reader) Meta() Meta { return r.meta }

// Path returns the path the artifact was opened from.
func (r *Reader) Path() string { return r.path }

// Size returns the artifact file size in bytes.
func (r *Reader) Size() int64 { return r.size }

// BytesRead returns the bytes read through this Reader so far — the
// artifact/bytes_read counter's source.
func (r *Reader) BytesRead() int64 { return r.bytesRead }

// HasLabels reports whether the artifact carries a label section
// (partitions do, kmersets do not).
func (r *Reader) HasLabels() bool { _, ok := r.toc.Entries[secLabels]; return ok }

// Labels reads and verifies the component label map.
func (r *Reader) Labels() ([]uint32, error) {
	e := r.toc.Entries[secLabels]
	buf, err := r.section(secLabels)
	if err != nil {
		return nil, err
	}
	if uint64(len(buf)) != e.Items*4 {
		return nil, spec.Errorf(r.path, "labels", "length %d != 4×%d items", len(buf), e.Items)
	}
	labels := make([]uint32, e.Items)
	for i := range labels {
		labels[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return labels, nil
}

// Hist reads and verifies the k-mer frequency histogram.
func (r *Reader) Hist() ([]uint64, error) {
	e := r.toc.Entries[secHist]
	buf, err := r.section(secHist)
	if err != nil {
		return nil, err
	}
	if uint64(len(buf)) != e.Items*8 {
		return nil, spec.Errorf(r.path, "hist", "length %d != 8×%d items", len(buf), e.Items)
	}
	hist := make([]uint64, e.Items)
	for i := range hist {
		hist[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return hist, nil
}

// KmerSeg locates the k-mer section as an extsort segment, for callers that
// merge artifacts with extsort.NewSegReader/NewMerger (the incremental
// path). The returned file is the Reader's own handle: keep the Reader open
// while segment readers are live, and note that reads through it are not
// counted by BytesRead.
func (r *Reader) KmerSeg() (*os.File, extsort.SegInfo) {
	e := r.toc.Entries[secKmers]
	return r.f, extsort.SegInfo{Off: e.Off, Len: e.Len, Tuples: e.Items}
}

// Tuples returns the k-mer section's tuple count.
func (r *Reader) Tuples() uint64 { return r.toc.Entries[secKmers].Items }

// Kmers opens a streaming scan of the sorted tuple section. Close the
// stream before closing the Reader.
func (r *Reader) Kmers() (*Stream, error) {
	f, seg := r.KmerSeg()
	sr := extsort.NewSegReader(f, seg, r.meta.Wide, r.meta.Compress, r.meta.BlockTuples)
	return &Stream{r: r, sr: sr}, nil
}

// VerifyKmers re-reads the k-mer section and checks its CRC. The streaming
// readers skip this (the block framing already catches most damage); batch
// tools like `metaprep artifact info -verify` call it explicitly.
func (r *Reader) VerifyKmers() error {
	e := r.toc.Entries[secKmers]
	sum := uint32(0)
	buf := make([]byte, 256<<10)
	sr := io.NewSectionReader(r.f, e.Off, e.Len)
	for {
		n, err := sr.Read(buf)
		if n > 0 {
			sum = crc32.Update(sum, spec.Table, buf[:n])
			r.bytesRead += int64(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return spec.Errorf(r.path, "kmers", "read: %v", err)
		}
	}
	if sum != e.CRC {
		return spec.Errorf(r.path, "kmers", "checksum mismatch")
	}
	return nil
}

// Close releases the file. Streams and KmerSeg readers must be closed
// first.
func (r *Reader) Close() error { return r.f.Close() }

// Stream iterates the sorted k-mer tuple section in key order. It is
// backed by an extsort.SegReader (decode goroutine with read-ahead);
// Close releases it and is required even after an error or early exit.
type Stream struct {
	r   *Reader
	sr  *extsort.SegReader
	blk *extsort.Block
	pos int
	n   uint64
}

// Next returns the next tuple, ok=false at end of section. Decode errors
// wrap ErrBadArtifact.
func (s *Stream) Next() (hi, lo uint64, val uint32, ok bool, err error) {
	for s.blk == nil || s.pos >= s.blk.Len() {
		if s.blk != nil {
			s.sr.Release(s.blk)
			s.blk = nil
		}
		b, err := s.sr.Next()
		if err != nil {
			return 0, 0, 0, false, spec.Errorf(s.r.path, "kmers", "decode: %v", err)
		}
		if b == nil {
			if s.n != s.r.Tuples() {
				return 0, 0, 0, false, spec.Errorf(s.r.path, "kmers",
					"section holds %d tuples, TOC says %d", s.n, s.r.Tuples())
			}
			return 0, 0, 0, false, nil
		}
		s.blk, s.pos = b, 0
	}
	lo = s.blk.Lo[s.pos]
	if s.blk.Hi != nil {
		hi = s.blk.Hi[s.pos]
	}
	val = s.blk.Val[s.pos]
	s.pos++
	s.n++
	s.r.bytesRead += 12 // logical tuple bytes; encoded size tracked coarsely
	return hi, lo, val, true, nil
}

// Close stops the underlying segment reader. Idempotent.
func (s *Stream) Close() {
	if s.blk != nil {
		s.sr.Release(s.blk)
		s.blk = nil
	}
	s.sr.Close()
}

// Info summarizes an artifact for display: provenance plus per-section
// sizes. With verify set it also CRC-checks every section including the
// k-mer blocks.
type SectionInfo struct {
	Name  string
	Bytes int64
	Items uint64
	CRC   uint32
}

type InfoData struct {
	Path     string
	Size     int64
	Meta     Meta
	Sections []SectionInfo
}

func Info(path string, verify bool) (InfoData, error) {
	r, err := Open(path)
	if err != nil {
		return InfoData{}, err
	}
	defer r.Close()
	d := InfoData{Path: path, Size: r.size, Meta: r.meta}
	for _, id := range []uint8{secKmers, secLabels, secHist, secMeta} {
		e, ok := r.toc.Entries[id]
		if !ok {
			continue
		}
		d.Sections = append(d.Sections, SectionInfo{
			Name: spec.SectionName(id), Bytes: e.Len, Items: e.Items, CRC: e.CRC,
		})
	}
	if verify {
		if err := r.VerifyKmers(); err != nil {
			return d, err
		}
		if r.HasLabels() {
			if _, err := r.Labels(); err != nil {
				return d, err
			}
		}
		if _, err := r.Hist(); err != nil {
			return d, err
		}
	}
	return d, nil
}
