package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// goldenV2 is a format-2 index (32-bit chunk counts) of testdata/golden.fastq
// built with goldenOpts; six of its (chunk, bin) counts exceed 254.
const goldenV2 = "testdata/golden-v2.idx"

var goldenOpts = Options{K: 11, M: 2, ChunkSize: 6000}

// histCounts returns every bin's count.
func histCounts(h *ChunkHist, bins int) []uint32 {
	counts := make([]uint32, bins)
	for b := range counts {
		counts[b] = h.Count(b)
	}
	return counts
}

// TestReadV2Golden loads the committed format-2 index and checks it against
// a fresh build of the same FASTQ: every per-bin count, the digest and the
// whole struct must agree, and re-encoding as format 3 must round-trip.
func TestReadV2Golden(t *testing.T) {
	old, err := Load(goldenV2)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Build([]string{"testdata/golden.fastq"}, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Chunks) != len(fresh.Chunks) {
		t.Fatalf("golden has %d chunks, fresh build %d", len(old.Chunks), len(fresh.Chunks))
	}
	overflow := 0
	for ci := range old.Chunks {
		a, b := &old.Chunks[ci].Hist, &fresh.Chunks[ci].Hist
		for bin := 0; bin < goldenOpts.Bins(); bin++ {
			if a.Count(bin) != b.Count(bin) {
				t.Fatalf("chunk %d bin %d: golden %d, fresh %d", ci, bin, a.Count(bin), b.Count(bin))
			}
		}
		overflow += len(a.over)
	}
	if overflow == 0 {
		t.Fatal("golden holds no count above 254: it does not exercise the overflow table")
	}
	if old.Digest() != fresh.Digest() {
		t.Errorf("golden digest %s, fresh build %s", old.Digest(), fresh.Digest())
	}
	if !reflect.DeepEqual(old, fresh) {
		t.Error("golden index differs from a fresh build")
	}
	var v3 bytes.Buffer
	if err := old.Write(&v3); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v3.Bytes(), []byte(fileMagic)) {
		t.Fatalf("Write emitted magic %q", v3.Bytes()[:len(fileMagic)])
	}
	back, err := ReadFrom(&v3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, old) {
		t.Error("format-3 re-encoding of the golden does not round-trip")
	}
}

// edgeIndex returns an index (m = 2, one file "x.fastq") of two chunks
// whose counts sit either side of the byte limit, with the largest 32-bit
// count at both ends, and the two count arrays.
func edgeIndex() (idx *Index, counts, rev []uint32) {
	const maxU32 = math.MaxUint32
	counts = []uint32{maxU32, 255, 0, 256, 254, 255, 0, 0, 256, maxU32, 1, 254, 0, 255, 256, maxU32}
	rev = make([]uint32, len(counts))
	for i, c := range counts {
		rev[len(counts)-1-i] = c
	}
	idx = &Index{
		Opts:    Options{K: 11, M: 2, ChunkSize: 1},
		Files:   []string{"x.fastq"},
		MerHist: make([]uint64, len(counts)),
		Chunks:  []Chunk{{Hist: NewChunkHist(counts)}, {Hist: NewChunkHist(rev)}},
	}
	for b := range counts {
		idx.MerHist[b] = uint64(counts[b]) + uint64(rev[b])
	}
	return idx, counts, rev
}

// TestReadFromRejectsMalformed corrupts one field at a time of a valid
// format-3 encoding, and truncates it at every length: each must fail with
// ErrCorrupt, and none may load into an index that Write would not
// reproduce.
func TestReadFromRejectsMalformed(t *testing.T) {
	idx, _, _ := edgeIndex()
	var buf bytes.Buffer
	if err := idx.Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	le := binary.LittleEndian
	// Offsets in the encoding: magic, 4 option words, the file table, the 4
	// totals, the 16-bin m-mer histogram and the chunk count precede chunk
	// 0, whose 32-byte record header is followed by 16 count bytes, the
	// overflow-entry count and 9 (bin, count) entries.
	name := len(idx.Files[0])
	reads := 8 + 32 + 8 + 8 + name
	chunk0 := reads + 32 + 8*16 + 8
	flags, small := chunk0+28, chunk0+32
	nOver := small + 16
	over := nOver + 4
	cases := map[string]func(b []byte) []byte{
		"pairing mode 3":      func(b []byte) []byte { le.PutUint64(b[8+24:], 3); return b },
		"read count 2^32":     func(b []byte) []byte { le.PutUint64(b[reads:], 1<<32); return b },
		"chunk file 1 of 1":   func(b []byte) []byte { le.PutUint32(b[chunk0:], 1); return b },
		"negative offset":     func(b []byte) []byte { le.PutUint64(b[chunk0+4:], 1<<63); return b },
		"unknown flag bit":    func(b []byte) []byte { b[flags] |= 2; return b },
		"unlisted saturation": func(b []byte) []byte { b[small+2] = 255; return b },
		"entry count short":   func(b []byte) []byte { le.PutUint32(b[nOver:], 8); return b },
		"entry below 255":     func(b []byte) []byte { le.PutUint32(b[over+4:], 254); return b },
		"entry on a small bin": func(b []byte) []byte {
			le.PutUint32(b[over:], 2)
			return b
		},
		"entries out of order": func(b []byte) []byte {
			e0 := slices.Clone(b[over : over+8])
			copy(b[over:], b[over+8:over+16])
			copy(b[over+8:], e0)
			return b
		},
		"trailing byte": func(b []byte) []byte { return append(b, 0) },
	}
	for name, corrupt := range cases {
		data := corrupt(slices.Clone(good))
		if _, err := ReadFrom(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	for n := range good {
		if _, err := ReadFrom(bytes.NewReader(good[:n])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated to %d of %d bytes: err = %v, want ErrCorrupt", n, len(good), err)
		}
	}
	if _, err := ReadFrom(bytes.NewReader(good)); err != nil {
		t.Fatalf("the uncorrupted encoding does not load: %v", err)
	}
}

// TestChunkHistEdgeCounts places the counts either side of the byte limit
// and the largest 32-bit count at range edges, and checks that every per-bin
// count and every range sum survives memory and disk exactly.
func TestChunkHistEdgeCounts(t *testing.T) {
	idx, counts, rev := edgeIndex()
	var buf bytes.Buffer
	if err := idx.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, idx) {
		t.Error("index with edge counts does not round-trip through disk")
	}
	for name, ix := range map[string]*Index{"memory": idx, "disk": loaded} {
		for ci, want := range [][]uint32{counts, rev} {
			h := &ix.Chunks[ci].Hist
			if got := histCounts(h, len(want)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s chunk %d: counts %v, want %v", name, ci, got, want)
			}
			for lo := 0; lo <= len(want); lo++ {
				var ref uint64
				for hi := lo; hi <= len(want); hi++ {
					if hi > lo {
						ref += uint64(want[hi-1])
					}
					if got := h.RangeCount(lo, hi); got != ref {
						t.Fatalf("%s chunk %d: RangeCount(%d, %d) = %d, want %d", name, ci, lo, hi, got, ref)
					}
				}
			}
		}
	}
	// 8·4^m + Σ_chunks (4^m + 8·overflow entries): 9 counts ≥ 255 each.
	if got, want := loaded.MemoryBytes(), int64(8*16+2*(16+8*9)); got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

// hostileHeader returns a well-formed index header (m = 2) whose chunk
// count is 2^28, followed by a few bytes of a first chunk record.
func hostileHeader(magic string) []byte {
	var b bytes.Buffer
	b.WriteString(magic)
	u64 := func(v uint64) { b.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	u64(27)  // K
	u64(2)   // M
	u64(100) // ChunkSize
	u64(0)   // unpaired
	u64(1)   // one file
	u64(1)
	b.WriteString("a")
	u64(1)  // Reads
	u64(1)  // Records
	u64(90) // TotalBases
	u64(64) // TotalKmers
	for range 16 {
		u64(4)
	}
	u64(1 << 28)
	b.Write(make([]byte, 40))
	return b.Bytes()
}

// TestReadFromHostileChunkCount feeds a few hundred bytes whose header
// promises 2^28 chunks: ReadFrom must fail with ErrCorrupt having
// allocated well under the 16 GiB such a chunk table would take.
func TestReadFromHostileChunkCount(t *testing.T) {
	for _, magic := range []string{fileMagic, fileMagicV2} {
		data := hostileHeader(magic)
		if len(data) > 512 {
			t.Fatalf("crafted header is %d bytes", len(data))
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := ReadFrom(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", magic, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: ReadFrom allocated %d bytes before failing", magic, alloc)
		}
	}
}

// TestSaveOntoDirectoryLeavesNoTemp makes the final rename fail: Save must
// return the error and remove its temp file.
func TestSaveOntoDirectoryLeavesNoTemp(t *testing.T) {
	idx, err := Load(goldenV2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	target := filepath.Join(dir, "ds.idx")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := idx.Save(target); err == nil {
		t.Fatal("Save over a directory succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "ds.idx" || !ents[0].IsDir() {
		t.Errorf("after a failed Save the directory holds %v, want only ds.idx/", ents)
	}
	// A Save that succeeds leaves the index and nothing else.
	good := filepath.Join(dir, "good.idx")
	if err := idx.Save(good); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(good + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file after a successful Save: %v", err)
	}
}

// FuzzIndexCodec: ReadFrom never panics, rejects with ErrCorrupt, and any
// index it accepts re-encodes (format 3) to the exact input bytes when the
// input is format 3, and to bytes that load back with equal counts.
func FuzzIndexCodec(f *testing.F) {
	v2, err := os.ReadFile(goldenV2)
	if err != nil {
		f.Fatal(err)
	}
	idx, err := ReadFrom(bytes.NewReader(v2))
	if err != nil {
		f.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := idx.Write(&v3); err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Add(v3.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := idx.Write(&out); err != nil {
			t.Fatal(err)
		}
		if bytes.HasPrefix(data, []byte(fileMagic)) && !bytes.Equal(out.Bytes(), data) {
			t.Fatal("accepted format-3 input does not re-encode byte-identically")
		}
		back, err := ReadFrom(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded index does not load: %v", err)
		}
		if !reflect.DeepEqual(back, idx) {
			t.Fatal("re-encoded index differs")
		}
		for ci := range idx.Chunks {
			bins := idx.Opts.Bins()
			if !reflect.DeepEqual(histCounts(&back.Chunks[ci].Hist, bins), histCounts(&idx.Chunks[ci].Hist, bins)) {
				t.Fatalf("chunk %d counts differ after re-encoding", ci)
			}
		}
	})
}
