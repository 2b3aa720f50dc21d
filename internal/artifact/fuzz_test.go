package artifact

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"metaprep/internal/container"
)

// fuzzSeed builds a small valid artifact's bytes for seeding.
func fuzzSeed(tb testing.TB, n int, wide, compress bool) []byte {
	dir, err := os.MkdirTemp("", "artifact-fuzz-")
	if err != nil {
		tb.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "seed.mpa")
	w, err := Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer w.Abort()
	if err := w.BeginKmers(wide, compress, 8); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Tuple(uint64(i/5), uint64(i*3), uint32(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.EndKmers(); err != nil {
		tb.Fatal(err)
	}
	if err := w.Labels([]uint32{2, 2, 2}); err != nil {
		tb.Fatal(err)
	}
	if err := w.Hist([]uint64{0, 1, 2}); err != nil {
		tb.Fatal(err)
	}
	if err := w.Finish(Meta{Kind: KindPartition, K: 27, M: 15, Reads: 3}); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzArtifactCodec feeds arbitrary bytes through the full artifact read
// path: Open, every section accessor, the streaming tuple scan, and the
// checksum verifier. The invariant is error discipline, not success — every
// failure must be a typed error wrapping ErrBadArtifact (or a clean read),
// never a panic, hang, or unbounded allocation. Mutations of valid
// artifacts (bit flips, truncations) are the interesting corpus; the seeds
// cover both key widths and the compressed payload path.
func FuzzArtifactCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("MPAF"))
	f.Add(make([]byte, container.HeaderLen+container.TrailerLen))
	f.Add(fuzzSeed(f, 20, false, true))
	f.Add(fuzzSeed(f, 20, false, false))
	f.Add(fuzzSeed(f, 20, true, false))
	// A truncated and a bit-flipped variant of a valid file.
	seed := fuzzSeed(f, 40, false, true)
	f.Add(seed[:len(seed)-10])
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.mpa")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrBadArtifact) {
				t.Fatalf("Open error not typed: %v", err)
			}
			return
		}
		defer r.Close()
		if r.HasLabels() {
			if _, err := r.Labels(); err != nil && !errors.Is(err, ErrBadArtifact) {
				t.Fatalf("Labels error not typed: %v", err)
			}
		}
		if _, err := r.Hist(); err != nil && !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("Hist error not typed: %v", err)
		}
		if err := r.VerifyKmers(); err != nil && !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("VerifyKmers error not typed: %v", err)
		}
		s, err := r.Kmers()
		if err != nil {
			if !errors.Is(err, ErrBadArtifact) {
				t.Fatalf("Kmers error not typed: %v", err)
			}
			return
		}
		defer s.Close()
		var prevHi, prevLo uint64
		first := true
		for n := 0; n < 1<<20; n++ {
			hi, lo, _, ok, err := s.Next()
			if err != nil {
				if !errors.Is(err, ErrBadArtifact) {
					t.Fatalf("Next error not typed: %v", err)
				}
				return
			}
			if !ok {
				return
			}
			if !first && keyLess(hi, lo, prevHi, prevLo) {
				// The format promises sorted order only for writer-produced
				// files; fuzz-mutated payloads that still frame-decode may
				// be unsorted. Not an error — just stop scanning.
				return
			}
			prevHi, prevLo, first = hi, lo, false
		}
	})
}

// FuzzMetaJSON mutates only the meta section's JSON bytes: Open must reject
// undecodable or implausible metadata with a typed error.
func FuzzMetaJSON(f *testing.F) {
	f.Add([]byte(`{"kind":"partition","k":27,"m":15,"block_tuples":8}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"block_tuples":-1}`))
	f.Fuzz(func(t *testing.T, mj []byte) {
		raw := fuzzSeed(t, 4, false, true)
		// Locate the meta TOC entry and splice mj in its place, fixing the
		// entry's length and CRC so only the JSON-decode layer is exercised.
		tocLen := int64(binary.LittleEndian.Uint32(raw[len(raw)-container.TrailerLen:]))
		tocOff := int64(len(raw)) - container.TrailerLen - tocLen
		var rebuilt []byte
		var metaOff, metaLen int64
		for i := tocOff; i < tocOff+tocLen; i += container.EntryLen {
			e := container.DecodeEntry(raw[i:])
			if e.ID == secMeta {
				metaOff, metaLen = e.Off, e.Len
			}
		}
		if metaLen == 0 {
			t.Skip("seed has no meta section")
		}
		rebuilt = append(rebuilt, raw[:metaOff]...)
		rebuilt = append(rebuilt, mj...)
		tail := raw[metaOff+metaLen:]
		shift := int64(len(mj)) - metaLen
		rebuilt = append(rebuilt, tail...)
		// Patch TOC entries that referenced bytes at or after the meta
		// section, then the trailer CRC.
		newTocOff := tocOff + shift
		for i := newTocOff; i < newTocOff+tocLen; i += container.EntryLen {
			e := container.DecodeEntry(rebuilt[i:])
			if e.ID == secMeta {
				e.Len = int64(len(mj))
				e.CRC = crc32.ChecksumIEEE(mj)
			} else if e.Off >= metaOff {
				e.Off += shift
			}
			e.Encode(rebuilt[i:])
		}
		trailer := rebuilt[len(rebuilt)-container.TrailerLen:]
		binary.LittleEndian.PutUint32(trailer[4:], crc32.ChecksumIEEE(rebuilt[newTocOff:newTocOff+tocLen]))

		path := filepath.Join(t.TempDir(), "meta.mpa")
		if err := os.WriteFile(path, rebuilt, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrBadArtifact) {
				t.Fatalf("Open error not typed: %v", err)
			}
			return
		}
		r.Close()
	})
}
