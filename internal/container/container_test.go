package container_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"metaprep/internal/artifact"
	"metaprep/internal/container"
	"metaprep/internal/lookup"
)

// writeFiles writes a small valid `.mpa` and the `.mplk` built from it.
func writeFiles(t *testing.T, dir string) (mpa, mplk string) {
	t.Helper()
	mpa = filepath.Join(dir, "a.mpa")
	w, err := artifact.Create(mpa)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.BeginKmers(false, true, 16); err != nil {
		t.Fatal(err)
	}
	labels := make([]uint32, 100)
	for i := range labels {
		labels[i] = uint32(i % 5)
		if err := w.Tuple(0, uint64(i)*31, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.EndKmers(); err != nil {
		t.Fatal(err)
	}
	if err := w.Labels(labels); err != nil {
		t.Fatal(err)
	}
	if err := w.Hist(make([]uint64, 8)); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(artifact.Meta{Kind: artifact.KindPartition, K: 21, M: 7, Reads: 100}); err != nil {
		t.Fatal(err)
	}
	ar, err := artifact.Open(mpa)
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	mplk = filepath.Join(dir, "a.mplk")
	if _, err := lookup.Build(ar, mplk, lookup.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	return mpa, mplk
}

// retoc rewrites a file's TOC entries through edit and re-seals the TOC
// CRC with table, so only the check under test can fire.
func retoc(b []byte, table *crc32.Table, edit func([]container.Entry)) []byte {
	le := binary.LittleEndian
	tocLen := int(le.Uint32(b[len(b)-container.TrailerLen:]))
	toc := b[len(b)-container.TrailerLen-tocLen : len(b)-container.TrailerLen]
	es := make([]container.Entry, tocLen/container.EntryLen)
	for i := range es {
		es[i] = container.DecodeEntry(toc[i*container.EntryLen:])
	}
	edit(es)
	for i, e := range es {
		e.Encode(toc[i*container.EntryLen:])
	}
	le.PutUint32(b[len(b)-container.TrailerLen+4:], crc32.Checksum(toc, table))
	return b
}

// TestHostileTrailers runs the same framing attacks against both formats:
// each must fail with its own format's sentinel (never the other's) and the
// reason of the check that caught it.
func TestHostileTrailers(t *testing.T) {
	mpa, mplk := writeFiles(t, t.TempDir())
	formats := []struct {
		name       string
		path       string
		table      *crc32.Table
		open       func(string) error
		own, other error
	}{
		{"mpa", mpa, crc32.IEEETable,
			func(p string) error {
				r, err := artifact.Open(p)
				if err == nil {
					r.Close()
				}
				return err
			}, artifact.ErrBadArtifact, lookup.ErrBadLookup},
		{"mplk", mplk, crc32.MakeTable(crc32.Castagnoli),
			func(p string) error {
				l, err := lookup.Open(p)
				if err == nil {
					l.Close()
				}
				return err
			}, lookup.ErrBadLookup, artifact.ErrBadArtifact},
	}
	for _, f := range formats {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		tocOff := func(b []byte) int64 {
			return int64(len(b)) - container.TrailerLen -
				int64(binary.LittleEndian.Uint32(b[len(b)-container.TrailerLen:]))
		}
		cases := []struct {
			name   string
			mut    func([]byte) []byte
			reason string
		}{
			{"toc over cap", func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[len(b)-container.TrailerLen:], (container.MaxSections+1)*container.EntryLen)
				return b
			}, "implausible TOC length"},
			{"section past toc", func(b []byte) []byte {
				end := tocOff(b)
				return retoc(b, f.table, func(es []container.Entry) { es[0].Len = end - es[0].Off + 1 })
			}, "section out of bounds"},
			{"duplicate id", func(b []byte) []byte {
				return retoc(b, f.table, func(es []container.Entry) { es[1].ID = es[0].ID })
			}, "duplicate section"},
			{"bad toc crc", func(b []byte) []byte { b[len(b)-container.TrailerLen+4] ^= 0xff; return b }, "TOC checksum mismatch"},
			{"wrong version", func(b []byte) []byte { b[4]++; return b }, "format version"},
			{"truncated tail", func(b []byte) []byte { return b[:len(b)-3] }, "bad tail magic"},
		}
		for _, c := range cases {
			t.Run(f.name+"/"+c.name, func(t *testing.T) {
				p := filepath.Join(t.TempDir(), "bad")
				if err := os.WriteFile(p, c.mut(append([]byte(nil), raw...)), 0o644); err != nil {
					t.Fatal(err)
				}
				err := f.open(p)
				if !errors.Is(err, f.own) || errors.Is(err, f.other) {
					t.Fatalf("err = %v, want only %v", err, f.own)
				}
				var fe *container.FormatError
				if !errors.As(err, &fe) || !strings.Contains(fe.Reason, c.reason) {
					t.Fatalf("err = %v, want a FormatError saying %q", err, c.reason)
				}
			})
		}
	}
}

// TestSweepTemps plants names on both sides of CreateTemp's pattern, a
// directory that matches it and a file the owner's legacy rule names:
// only the file CreateTemp made and the legacy file are removed and
// reported.
func TestSweepTemps(t *testing.T) {
	dir := t.TempDir()
	temp, err := container.CreateTemp(filepath.Join(dir, "p-a.mpa"))
	if err != nil {
		t.Fatal(err)
	}
	temp.Close()
	legacy := filepath.Join(dir, "old-1")
	keep := []string{"p-a.mpa", "p-a.mpa.tmp-1", ".tmp-1", ".p-a.mpa", "old-2"}
	for _, name := range append(keep, filepath.Base(legacy)) {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, ".d.tmp-1"), 0o755); err != nil {
		t.Fatal(err)
	}
	removed, err := container.SweepTemps(nil, dir, func(name string) bool { return name == "old-1" })
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(removed)
	if want := []string{temp.Name(), legacy}; !slices.Equal(removed, want) {
		t.Fatalf("removed %v, want %v", removed, want)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(keep)+1 {
		t.Fatalf("after the sweep %d entries remain, want %d", len(ents), len(keep)+1)
	}
	if removed, err := container.SweepTemps(nil, filepath.Join(dir, "missing"), nil); len(removed) != 0 || err != nil {
		t.Fatalf("SweepTemps(missing) = %v, %v", removed, err)
	}
}
