// Package container is the on-disk framing shared by the `.mpa` partition
// artifact (internal/artifact) and the `.mplk` lookup (internal/lookup),
// and the one durable commit every persisted product goes through.
//
// A container file is
//
//	offset 0   8-byte head magic: 4 format letters + version byte + 3 zero bytes
//	           sections (each checksummed with the Spec's CRC32 table)
//	trailer    TOC: one 32-byte Entry per section
//	           uint32 TOC byte length, uint32 CRC32(TOC)
//	           8-byte tail magic
//
// Bytes a format writes outside a section (the lookup's page padding) are
// covered by no checksum. The TOC sits at the end so a writer emits every
// section in one streaming pass.
//
// Commit is the durability rule: the temp file is fsynced, renamed onto
// its target, and the directory is fsynced, so a crash leaves the old file
// or the new one and never a partial one. A crash can leave the temp file
// itself behind; SweepTemps removes those at the next startup.
package container

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Framing constants, pinned by each format's golden test.
const (
	HeaderLen   = 8
	EntryLen    = 32
	TrailerLen  = 16 // TOC length u32 + TOC CRC u32 + tail magic
	MaxSections = 64 // a TOC longer than this is corruption
)

// Spec is one container format: its magics, its checksum and the sentinel
// its structural errors wrap.
type Spec struct {
	// Kind prefixes every FormatError message ("artifact", "lookup").
	Kind string
	// Head is the magic plus version byte at offset 0; Tail ends the file.
	Head, Tail [8]byte
	// Table is the CRC32 table of every section and of the TOC.
	Table *crc32.Table
	// Err is the sentinel every FormatError of this format unwraps to.
	Err error
	// Names maps section ids to names for error messages.
	Names []string
}

// SectionName names a section id, or "section#N" for an unknown one.
func (s *Spec) SectionName(id uint8) string {
	if int(id) < len(s.Names) && s.Names[id] != "" {
		return s.Names[id]
	}
	return fmt.Sprintf("section#%d", id)
}

// FormatError reports a structural defect in a container file. It unwraps
// to its Spec's Err.
type FormatError struct {
	Path    string // file being read
	Section string // section name, or "header"/"trailer" for framing errors
	Reason  string
	spec    *Spec
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("%s %s: %s: %s", e.spec.Kind, e.Path, e.Section, e.Reason)
}

func (e *FormatError) Unwrap() error { return e.spec.Err }

// Errorf returns a FormatError of this format.
func (s *Spec) Errorf(path, section, format string, args ...any) error {
	return &FormatError{Path: path, Section: section, Reason: fmt.Sprintf(format, args...), spec: s}
}

// Entry is one 32-byte TOC record: id, flags, 2 zero bytes, CRC u32, then
// offset, length and item count as u64.
type Entry struct {
	ID    uint8
	Flags uint8
	CRC   uint32
	Off   int64
	Len   int64
	Items uint64
}

// Encode writes e into dst[:EntryLen].
func (e Entry) Encode(dst []byte) {
	dst[0], dst[1], dst[2], dst[3] = e.ID, e.Flags, 0, 0
	binary.LittleEndian.PutUint32(dst[4:], e.CRC)
	binary.LittleEndian.PutUint64(dst[8:], uint64(e.Off))
	binary.LittleEndian.PutUint64(dst[16:], uint64(e.Len))
	binary.LittleEndian.PutUint64(dst[24:], e.Items)
}

// DecodeEntry reads one TOC record from src[:EntryLen].
func DecodeEntry(src []byte) Entry {
	return Entry{
		ID:    src[0],
		Flags: src[1],
		CRC:   binary.LittleEndian.Uint32(src[4:]),
		Off:   int64(binary.LittleEndian.Uint64(src[8:])),
		Len:   int64(binary.LittleEndian.Uint64(src[16:])),
		Items: binary.LittleEndian.Uint64(src[24:]),
	}
}

// Writer frames sections onto an underlying writer, keeping a running CRC
// of the open section and the TOC. Its first error is sticky: every later
// call is a no-op and Err returns it.
type Writer struct {
	spec *Spec
	w    io.Writer
	off  int64
	err  error
	open bool
	cur  Entry
	toc  []Entry
}

// NewWriter writes the head magic to w and returns a Writer positioned
// after it.
func (s *Spec) NewWriter(w io.Writer) *Writer {
	cw := &Writer{spec: s, w: w}
	cw.Write(s.Head[:])
	return cw
}

// Write appends p, folding it into the open section's CRC if one is open.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.w.Write(p)
	if w.open {
		w.cur.CRC = crc32.Update(w.cur.CRC, w.spec.Table, p[:n])
	}
	w.off += int64(n)
	w.err = err
	return n, err
}

// Begin opens section id at the current offset.
func (w *Writer) Begin(id, flags uint8) {
	w.cur = Entry{ID: id, Flags: flags, Off: w.off}
	w.open = true
}

// End closes the open section, recording its item count in the TOC.
func (w *Writer) End(items uint64) {
	w.cur.Len, w.cur.Items = w.off-w.cur.Off, items
	w.toc = append(w.toc, w.cur)
	w.open = false
}

// Fail makes err the Writer's sticky error unless one is already set, and
// returns the sticky error.
func (w *Writer) Fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// Err returns the sticky error.
func (w *Writer) Err() error { return w.err }

// Offset returns the bytes written so far: the file size after Finish.
func (w *Writer) Offset() int64 { return w.off }

// Finish writes the TOC and the trailer. It does not flush or close the
// underlying writer.
func (w *Writer) Finish() error {
	toc := make([]byte, len(w.toc)*EntryLen)
	for i, e := range w.toc {
		e.Encode(toc[i*EntryLen:])
	}
	var tr [TrailerLen]byte
	binary.LittleEndian.PutUint32(tr[0:], uint32(len(toc)))
	binary.LittleEndian.PutUint32(tr[4:], crc32.Checksum(toc, w.spec.Table))
	copy(tr[8:], w.spec.Tail[:])
	w.Write(toc)
	w.Write(tr[:])
	return w.err
}

// TOC is a parsed, checked table of contents.
type TOC struct {
	spec    *Spec
	path    string
	Entries map[uint8]Entry
}

// Parse checks the framing of the size bytes readable from r: head magic
// and version, tail magic, TOC length bound, TOC CRC, section bounds and
// duplicate ids. It reads only the head, the trailer and the TOC; path
// names the file in errors.
func (s *Spec) Parse(r io.ReaderAt, size int64, path string) (*TOC, error) {
	if size < HeaderLen+TrailerLen {
		return nil, s.Errorf(path, "header", "file too short (%d bytes)", size)
	}
	var hdr [HeaderLen]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, s.Errorf(path, "header", "read: %v", err)
	}
	if hdr != s.Head {
		if [4]byte(hdr[:4]) == [4]byte(s.Head[:4]) {
			return nil, s.Errorf(path, "header", "format version %d, want %d", hdr[4], s.Head[4])
		}
		return nil, s.Errorf(path, "header", "bad magic %q", hdr[:])
	}
	var tr [TrailerLen]byte
	if _, err := r.ReadAt(tr[:], size-TrailerLen); err != nil {
		return nil, s.Errorf(path, "trailer", "read: %v", err)
	}
	if [8]byte(tr[8:]) != s.Tail {
		return nil, s.Errorf(path, "trailer", "bad tail magic (truncated file?)")
	}
	tocLen := int64(binary.LittleEndian.Uint32(tr[0:]))
	if tocLen%EntryLen != 0 || tocLen > MaxSections*EntryLen || HeaderLen+tocLen+TrailerLen > size {
		return nil, s.Errorf(path, "trailer", "implausible TOC length %d", tocLen)
	}
	tocOff := size - TrailerLen - tocLen
	toc := make([]byte, tocLen)
	if _, err := r.ReadAt(toc, tocOff); err != nil {
		return nil, s.Errorf(path, "trailer", "read TOC: %v", err)
	}
	if crc32.Checksum(toc, s.Table) != binary.LittleEndian.Uint32(tr[4:]) {
		return nil, s.Errorf(path, "trailer", "TOC checksum mismatch")
	}
	t := &TOC{spec: s, path: path, Entries: make(map[uint8]Entry, tocLen/EntryLen)}
	for i := int64(0); i < tocLen; i += EntryLen {
		e := DecodeEntry(toc[i:])
		if e.Off < HeaderLen || e.Len < 0 || e.Off+e.Len > tocOff {
			return nil, s.Errorf(path, s.SectionName(e.ID), "section out of bounds [%d,+%d)", e.Off, e.Len)
		}
		if _, dup := t.Entries[e.ID]; dup {
			return nil, s.Errorf(path, s.SectionName(e.ID), "duplicate section")
		}
		t.Entries[e.ID] = e
	}
	return t, nil
}

// Section returns section id's entry, or a FormatError if it is missing.
func (t *TOC) Section(id uint8) (Entry, error) {
	e, ok := t.Entries[id]
	if !ok {
		return e, t.spec.Errorf(t.path, t.spec.SectionName(id), "section missing")
	}
	return e, nil
}

// Check verifies that buf, the bytes of section e, match e's CRC.
func (t *TOC) Check(e Entry, buf []byte) error {
	if crc32.Checksum(buf, t.spec.Table) != e.CRC {
		return t.spec.Errorf(t.path, t.spec.SectionName(e.ID), "checksum mismatch")
	}
	return nil
}

// tempMark sits between a temp file's target name and its random suffix.
const tempMark = ".tmp-"

// CreateTemp creates a temp file beside path, named after it, for a writer
// that later calls Commit.
func CreateTemp(path string) (*os.File, error) {
	return os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+tempMark+"*")
}

// SweepTemps removes from dir the files CreateTemp names — a writer that
// died before Commit or its own cleanup leaves one — and the files legacy
// matches, the names an earlier release gave what its owner of dir left
// behind (nil matches none). It returns the removed paths. Call it at
// startup, before any writer uses dir.
func SweepTemps(lg *slog.Logger, dir string, legacy func(name string) bool) ([]string, error) {
	return sweep(lg, dir, false, func(name string) bool {
		ok, _ := filepath.Match(".?*"+tempMark+"*", name)
		return ok || legacy != nil && legacy(name)
	})
}

// SweepDirs removes from dir the directories whose names begin with one of
// prefixes, with their contents, and returns their paths.
func SweepDirs(lg *slog.Logger, dir string, prefixes ...string) ([]string, error) {
	return sweep(lg, dir, true, func(name string) bool {
		return slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(name, p) })
	})
}

// sweep removes the directories (dirs) or else the files of dir whose
// names match, logs each removal to lg (nil logs nothing) and returns the
// removed paths. A path it cannot remove is logged and left for the next
// startup; only a dir that cannot be read is an error, and a missing dir
// is not.
func sweep(lg *slog.Logger, dir string, dirs bool, match func(string) bool) (removed []string, err error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if lg == nil {
		lg = slog.New(slog.DiscardHandler)
	}
	for _, e := range ents {
		if e.IsDir() != dirs || !match(e.Name()) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if err := os.RemoveAll(path); err != nil {
			lg.Warn("boot sweep could not remove a leftover", "path", path, "err", err)
			continue
		}
		lg.Info("boot sweep removed a leftover", "path", path)
		removed = append(removed, path)
	}
	return removed, nil
}

// Commit makes tmp durable as path: it fsyncs tmp, renames it onto path and
// fsyncs the directory, so a crash leaves either the old path or the new
// one. tmp must be closed and in path's directory. On any failure tmp is
// removed.
func Commit(tmp, path string) (err error) {
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	f, err := os.OpenFile(tmp, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// WriteFile writes path through write and Commit: write gets a buffered
// writer over a temp file beside path. On any failure the temp file is
// removed and path is untouched.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := CreateTemp(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return Commit(f.Name(), path)
}

// syncDir fsyncs a directory so a rename inside it survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
