package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"metaprep/internal/container"
)

// testTuples builds a deterministic sorted tuple set: distinct keys with
// run lengths cycling 1..4, values increasing.
func testTuples(n int, wide bool) (hi, lo []uint64, val []uint32) {
	key := uint64(100)
	v := uint32(0)
	for len(lo) < n {
		run := len(lo)%4 + 1
		for j := 0; j < run && len(lo) < n; j++ {
			lo = append(lo, key*7)
			if wide {
				hi = append(hi, key/3)
			}
			val = append(val, v)
			v++
		}
		key += uint64(len(lo)%5 + 1)
	}
	if !wide {
		hi = nil
	}
	return hi, lo, val
}

func writeTestArtifact(t *testing.T, path string, n int, wide, compress bool) ([]uint64, []uint64, []uint32, []uint32, []uint64) {
	t.Helper()
	hi, lo, val := testTuples(n, wide)
	labels := make([]uint32, 50)
	for i := range labels {
		labels[i] = uint32(i % 7 * 8)
	}
	hist := make([]uint64, 256)
	hist[1], hist[2], hist[255] = 10, 4, 1
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.BeginKmers(wide, compress, 16); err != nil {
		t.Fatal(err)
	}
	for i := range lo {
		h := uint64(0)
		if wide {
			h = hi[i]
		}
		if err := w.Tuple(h, lo[i], val[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.EndKmers(); err != nil {
		t.Fatal(err)
	}
	if err := w.Labels(labels); err != nil {
		t.Fatal(err)
	}
	if err := w.Hist(hist); err != nil {
		t.Fatal(err)
	}
	meta := Meta{
		Kind: KindPartition, K: 27, M: 15, FilterMin: 2,
		Reads: uint32(len(labels)), Edges: 33, IndexDigest: "test-digest",
		ConfigHash: "test-hash",
	}
	if err := w.Finish(meta); err != nil {
		t.Fatal(err)
	}
	return hi, lo, val, labels, hist
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name           string
		wide, compress bool
	}{
		{"narrow-raw", false, false},
		{"narrow-compress", false, true},
		{"wide-raw", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "a.mpa")
			hi, lo, val, labels, hist := writeTestArtifact(t, path, 1000, tc.wide, tc.compress)
			r, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			m := r.Meta()
			if m.Kind != KindPartition || m.K != 27 || m.M != 15 || m.FilterMin != 2 ||
				m.Wide != tc.wide || m.Compress != tc.compress || m.BlockTuples != 16 ||
				m.Tuples != 1000 || m.IndexDigest != "test-digest" {
				t.Fatalf("meta mismatch: %+v", m)
			}
			gl, err := r.Labels()
			if err != nil {
				t.Fatal(err)
			}
			if len(gl) != len(labels) {
				t.Fatalf("labels len %d != %d", len(gl), len(labels))
			}
			for i := range gl {
				if gl[i] != labels[i] {
					t.Fatalf("label[%d] = %d, want %d", i, gl[i], labels[i])
				}
			}
			gh, err := r.Hist()
			if err != nil {
				t.Fatal(err)
			}
			for i := range gh {
				if gh[i] != hist[i] {
					t.Fatalf("hist[%d] = %d, want %d", i, gh[i], hist[i])
				}
			}
			s, err := r.Kmers()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := range lo {
				ghi, glo, gv, ok, err := s.Next()
				if err != nil || !ok {
					t.Fatalf("tuple %d: ok=%v err=%v", i, ok, err)
				}
				wantHi := uint64(0)
				if tc.wide {
					wantHi = hi[i]
				}
				if ghi != wantHi || glo != lo[i] || gv != val[i] {
					t.Fatalf("tuple %d = (%d,%d,%d), want (%d,%d,%d)", i, ghi, glo, gv, wantHi, lo[i], val[i])
				}
			}
			if _, _, _, ok, err := s.Next(); ok || err != nil {
				t.Fatalf("expected end of stream, ok=%v err=%v", ok, err)
			}
			if err := r.VerifyKmers(); err != nil {
				t.Fatal(err)
			}
			if r.BytesRead() == 0 {
				t.Fatal("BytesRead not tracked")
			}
		})
	}
}

func TestCopyBlocksSplicesVerbatim(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.mpa")
	writeTestArtifact(t, a, 500, false, true)
	ra, err := Open(a)
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	// Splice a's encoded kmer section into b without re-encoding.
	b := filepath.Join(dir, "b.mpa")
	w, err := Create(b)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.BeginKmers(false, true, ra.Meta().BlockTuples); err != nil {
		t.Fatal(err)
	}
	f, seg := ra.KmerSeg()
	sr := io.NewSectionReader(f, seg.Off, seg.Len)
	if err := w.CopyBlocks(sr, seg.Len, seg.Tuples); err != nil {
		t.Fatal(err)
	}
	if err := w.EndKmers(); err != nil {
		t.Fatal(err)
	}
	if err := w.Hist(make([]uint64, 4)); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(Meta{Kind: KindKmerset, K: 27, M: 15}); err != nil {
		t.Fatal(err)
	}
	rb, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if rb.Tuples() != 500 {
		t.Fatalf("spliced tuples = %d, want 500", rb.Tuples())
	}
	sa, _ := ra.Kmers()
	sb, _ := rb.Kmers()
	defer sa.Close()
	defer sb.Close()
	for {
		h1, l1, v1, ok1, err1 := sa.Next()
		h2, l2, v2, ok2, err2 := sb.Next()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if ok1 != ok2 || h1 != h2 || l1 != l2 || v1 != v2 {
			t.Fatalf("spliced stream diverges: (%d,%d,%d,%v) vs (%d,%d,%d,%v)",
				h1, l1, v1, ok1, h2, l2, v2, ok2)
		}
		if !ok1 {
			break
		}
	}
}

// TestFormatGolden pins format v1: the exact bytes of a fixed artifact. Any
// change to the magic, section layout, TOC encoding, checksums, meta JSON
// field set, or extsort block codec shows up here — bump FormatVersion
// instead of re-pinning silently.
func TestFormatGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.mpa")
	writeTestArtifact(t, path, 64, false, true)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:4]) != "MPAF" || raw[4] != FormatVersion {
		t.Fatalf("header = %q", raw[:8])
	}
	if string(raw[len(raw)-8:]) != "MPAFend1" {
		t.Fatalf("tail = %q", raw[len(raw)-8:])
	}
	const want = "4b7c1f7f0fd4d000c39dd42944d8149922fa7883826342dd26c8cc16ddbf02cd"
	got := sha256.Sum256(raw)
	if hex.EncodeToString(got[:]) != want {
		t.Fatalf("format v1 golden changed:\n got %x\nwant %s\n(size %d bytes) — a byte-level format change requires a version bump",
			got, want, len(raw))
	}
}

func TestOpenErrorsAreTyped(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.mpa")
	writeTestArtifact(t, good, 200, false, true)
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(good)
	if err != nil {
		t.Fatal(err)
	}
	secs := map[string]container.Entry{}
	for id, e := range r.toc.Entries {
		secs[spec.SectionName(id)] = e
	}
	r.Close()

	write := func(t *testing.T, mut func(b []byte) []byte) string {
		t.Helper()
		b := append([]byte(nil), raw...)
		b = mut(b)
		p := filepath.Join(t.TempDir(), "bad.mpa")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("bad-magic", func(t *testing.T) {
		p := write(t, func(b []byte) []byte { b[0] = 'X'; return b })
		if _, err := Open(p); !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("err = %v, want ErrBadArtifact", err)
		}
	})
	t.Run("future-version", func(t *testing.T) {
		p := write(t, func(b []byte) []byte { b[4] = FormatVersion + 1; return b })
		_, err := Open(p)
		if !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("err = %v, want ErrBadArtifact", err)
		}
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Section != "header" {
			t.Fatalf("err = %v, want header FormatError", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		p := write(t, func(b []byte) []byte { return b[:len(b)/2] })
		if _, err := Open(p); !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("err = %v, want ErrBadArtifact", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		p := write(t, func(b []byte) []byte { return b[:0] })
		if _, err := Open(p); !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("err = %v, want ErrBadArtifact", err)
		}
	})
	t.Run("toc-corrupt", func(t *testing.T) {
		p := write(t, func(b []byte) []byte { b[len(b)-container.TrailerLen-1] ^= 0xff; return b })
		if _, err := Open(p); !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("err = %v, want ErrBadArtifact", err)
		}
	})
	t.Run("meta-corrupt", func(t *testing.T) {
		e := secs["meta"]
		p := write(t, func(b []byte) []byte { b[e.Off] ^= 0xff; return b })
		var fe *FormatError
		_, err := Open(p)
		if !errors.As(err, &fe) || fe.Section != "meta" {
			t.Fatalf("err = %v, want meta FormatError", err)
		}
	})
	t.Run("labels-corrupt", func(t *testing.T) {
		e := secs["labels"]
		p := write(t, func(b []byte) []byte { b[e.Off+1] ^= 0x01; return b })
		r, err := Open(p) // labels verify lazily
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		_, err = r.Labels()
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Section != "labels" || !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("err = %v, want labels FormatError", err)
		}
	})
	t.Run("hist-corrupt", func(t *testing.T) {
		e := secs["hist"]
		p := write(t, func(b []byte) []byte { b[e.Off] ^= 0x80; return b })
		r, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if _, err := r.Hist(); !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("err = %v, want ErrBadArtifact", err)
		}
	})
	t.Run("kmers-corrupt", func(t *testing.T) {
		e := secs["kmers"]
		p := write(t, func(b []byte) []byte { b[e.Off+3] ^= 0xff; return b })
		r, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.VerifyKmers(); !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("VerifyKmers = %v, want ErrBadArtifact", err)
		}
		// The streaming path must fail too (framing or count check), never
		// silently return wrong data without an error... a flipped payload
		// byte may decode to different tuples, which VerifyKmers catches;
		// here we only require no panic and a clean close.
		s, err := r.Kmers()
		if err == nil {
			for {
				_, _, _, ok, err := s.Next()
				if !ok || err != nil {
					break
				}
			}
			s.Close()
		}
	})
}

func TestAbortLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.mpa")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BeginKmers(false, true, 8); err != nil {
		t.Fatal(err)
	}
	if err := w.Tuple(0, 42, 1); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("abort left files: %v", ents)
	}
}

func TestInfo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.mpa")
	writeTestArtifact(t, path, 300, false, true)
	d, err := Info(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta.Kind != KindPartition || len(d.Sections) != 4 {
		t.Fatalf("info = %+v", d)
	}
	for _, s := range d.Sections {
		if s.Name == "kmers" && s.Items != 300 {
			t.Fatalf("kmers items = %d", s.Items)
		}
	}
}

// writeKmerset builds a kmerset artifact from (key, count) pairs.
func writeKmerset(t *testing.T, path string, keys []uint64, counts []uint32) {
	t.Helper()
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.BeginKmers(false, true, 8); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := w.Tuple(0, k, counts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.EndKmers(); err != nil {
		t.Fatal(err)
	}
	if err := w.Hist(make([]uint64, 8)); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(Meta{Kind: KindKmerset, K: 27, M: 15}); err != nil {
		t.Fatal(err)
	}
}

func readKmerset(t *testing.T, path string) map[uint64]uint32 {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s, err := r.Kmers()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := map[uint64]uint32{}
	var last uint64
	first := true
	for {
		_, lo, v, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return got
		}
		if !first && lo <= last {
			t.Fatalf("output not strictly sorted: %d after %d", lo, last)
		}
		last, first = lo, false
		got[lo] = v
	}
}

func TestSetOps(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.mpa")
	b := filepath.Join(dir, "b.mpa")
	writeKmerset(t, a, []uint64{1, 3, 5, 9}, []uint32{2, 1, 4, 1})
	writeKmerset(t, b, []uint64{3, 4, 5, 10}, []uint32{5, 2, 1, 7})

	out := filepath.Join(dir, "u.mpa")
	st, err := Union(out, []string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if st.Distinct[0] != 4 || st.Distinct[1] != 4 || st.Emitted != 6 {
		t.Fatalf("union stats = %+v", st)
	}
	want := map[uint64]uint32{1: 2, 3: 6, 4: 2, 5: 5, 9: 1, 10: 7}
	got := readKmerset(t, out)
	if len(got) != len(want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("union[%d] = %d, want %d", k, got[k], v)
		}
	}

	out = filepath.Join(dir, "i.mpa")
	if _, err := Intersect(out, []string{a, b}); err != nil {
		t.Fatal(err)
	}
	got = readKmerset(t, out)
	want = map[uint64]uint32{3: 1, 5: 1}
	if len(got) != 2 || got[3] != 1 || got[5] != 1 {
		t.Fatalf("intersect = %v, want %v", got, want)
	}

	out = filepath.Join(dir, "d.mpa")
	if _, err := Diff(out, []string{a, b}); err != nil {
		t.Fatal(err)
	}
	got = readKmerset(t, out)
	if len(got) != 2 || got[1] != 2 || got[9] != 1 {
		t.Fatalf("diff = %v, want {1:2 9:1}", got)
	}

	ro, err := Open(out)
	if err != nil {
		t.Fatal(err)
	}
	m := ro.Meta()
	ro.Close()
	if m.Kind != KindKmerset || m.Op != "diff" || len(m.Lineage) != 2 {
		t.Fatalf("setop meta = %+v", m)
	}
}

func TestSetOpPartitionInput(t *testing.T) {
	// A partition artifact's runs collapse to distinct keys with
	// multiplicity = run length.
	dir := t.TempDir()
	p := filepath.Join(dir, "p.mpa")
	w, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.BeginKmers(false, true, 8); err != nil {
		t.Fatal(err)
	}
	// Runs: key 2 ×3, key 7 ×1, key 9 ×2.
	for _, tp := range [][2]uint64{{2, 0}, {2, 1}, {2, 2}, {7, 3}, {9, 4}, {9, 5}} {
		if err := w.Tuple(0, tp[0], uint32(tp[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.EndKmers(); err != nil {
		t.Fatal(err)
	}
	if err := w.Labels([]uint32{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Hist(make([]uint64, 8)); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(Meta{Kind: KindPartition, K: 27, M: 15, Reads: 3}); err != nil {
		t.Fatal(err)
	}
	b := filepath.Join(dir, "b.mpa")
	writeKmerset(t, b, []uint64{2, 9}, []uint32{1, 1})
	out := filepath.Join(dir, "u.mpa")
	st, err := Union(out, []string{p, b})
	if err != nil {
		t.Fatal(err)
	}
	if st.Distinct[0] != 3 {
		t.Fatalf("partition distinct = %d, want 3", st.Distinct[0])
	}
	got := readKmerset(t, out)
	if got[2] != 4 || got[7] != 1 || got[9] != 3 {
		t.Fatalf("union = %v", got)
	}
}

func TestSetOpMismatch(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.mpa")
	writeKmerset(t, a, []uint64{1}, []uint32{1})
	b := filepath.Join(dir, "b.mpa")
	w, err := Create(b)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.BeginKmers(false, true, 8); err != nil {
		t.Fatal(err)
	}
	if err := w.EndKmers(); err != nil {
		t.Fatal(err)
	}
	if err := w.Hist(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(Meta{Kind: KindKmerset, K: 31, M: 15}); err != nil {
		t.Fatal(err)
	}
	if _, err := Union(filepath.Join(dir, "u.mpa"), []string{a, b}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
}

func TestSetOpEmptyInput(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.mpa")
	writeKmerset(t, a, []uint64{1, 2}, []uint32{1, 1})
	b := filepath.Join(dir, "b.mpa")
	writeKmerset(t, b, nil, nil)
	got, err := Intersect(filepath.Join(dir, "i.mpa"), []string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got.Emitted != 0 {
		t.Fatalf("intersect with empty = %d emitted", got.Emitted)
	}
	u, err := Union(filepath.Join(dir, "u.mpa"), []string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if u.Emitted != 2 {
		t.Fatalf("union with empty = %d emitted", u.Emitted)
	}
}

func TestWriterRejectsWideCompress(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "a.mpa"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.BeginKmers(true, true, 8); err == nil {
		t.Fatal("wide+compress accepted")
	}
}

func ExampleInfo() {
	// Kept tiny: Info is the `metaprep artifact info` backend.
	fmt.Println("sections: kmers labels hist meta")
	// Output: sections: kmers labels hist meta
}
