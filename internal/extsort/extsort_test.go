package extsort

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestFormatVersionPinned pins the on-disk header encoding: any format
// change must bump FormatVersion and update this golden, never silently
// alias old run files.
func TestFormatVersionPinned(t *testing.T) {
	if FormatVersion != 1 {
		t.Fatalf("FormatVersion = %d; bumping it requires new header goldens here", FormatVersion)
	}
	cases := []struct {
		wide, compress bool
		want           []byte
	}{
		{false, false, []byte{'M', 'P', 'R', 'N', 1, 0, 0, 0}},
		{true, false, []byte{'M', 'P', 'R', 'N', 1, 1, 0, 0}},
		{false, true, []byte{'M', 'P', 'R', 'N', 1, 2, 0, 0}},
	}
	for _, c := range cases {
		h := EncodeHeader(c.wide, c.compress)
		if !bytes.Equal(h[:], c.want) {
			t.Errorf("EncodeHeader(%v, %v) = %v, want %v", c.wide, c.compress, h, c.want)
		}
	}
}

// decodeSeg streams data as one segment of the given tuple count through a
// SegReader, the package's one decode path, and returns the tuples it
// decoded before the end of the segment or the first error.
func decodeSeg(data []byte, wide, compress bool, maxTuples int, tuples uint64) (lo, hi []uint64, val []uint32, err error) {
	r := NewSegReader(bytes.NewReader(data), SegInfo{Len: int64(len(data)), Tuples: tuples}, wide, compress, maxTuples)
	defer r.Close()
	for {
		b, err := r.Next()
		if err != nil || b == nil {
			return lo, hi, val, err
		}
		lo, hi, val = append(lo, b.Lo...), append(hi, b.Hi...), append(val, b.Val...)
		r.Release(b)
	}
}

func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, wide := range []bool{false, true} {
		for _, compress := range []bool{false, true} {
			if wide && compress {
				continue
			}
			n := 257
			lo := make([]uint64, n)
			var hi []uint64
			val := make([]uint32, n)
			for i := range lo {
				lo[i] = rng.Uint64() >> uint(rng.Intn(40))
				val[i] = rng.Uint32()
			}
			sort.Slice(lo, func(i, j int) bool { return lo[i] < lo[j] })
			if wide {
				hi = make([]uint64, n)
				for i := range hi {
					hi[i] = rng.Uint64()
				}
			}
			enc := AppendBlock(nil, lo, hi, val, compress)
			gotLo, gotHi, gotVal, err := decodeSeg(enc, wide, compress, n, uint64(n))
			if err != nil {
				t.Fatalf("wide=%v compress=%v: %v", wide, compress, err)
			}
			if len(gotLo) != n {
				t.Fatalf("decoded %d tuples, want %d", len(gotLo), n)
			}
			for i := range lo {
				if gotLo[i] != lo[i] || gotVal[i] != val[i] || (wide && gotHi[i] != hi[i]) {
					t.Fatalf("tuple %d mismatch", i)
				}
			}
		}
	}
}

func TestDecodeBlockRejectsCorruption(t *testing.T) {
	lo := []uint64{1, 2, 3}
	val := []uint32{10, 20, 30}
	for _, compress := range []bool{false, true} {
		enc := AppendBlock(nil, lo, nil, val, compress)
		// Truncations at every length must error, not panic.
		for cut := 0; cut < len(enc); cut++ {
			if _, _, _, err := decodeSeg(enc[:cut], false, compress, 4, 3); !errors.Is(err, ErrCorrupt) {
				t.Errorf("compress=%v truncation at %d: err = %v, want ErrCorrupt", compress, cut, err)
			}
		}
		// A count beyond the writer's block size is rejected.
		if _, _, _, err := decodeSeg(enc, false, compress, 2, 3); !errors.Is(err, ErrCorrupt) {
			t.Errorf("compress=%v oversized count: err = %v", compress, err)
		}
	}
	// Decoding under the wrong shape is rejected.
	enc := AppendBlock(nil, lo, nil, val, false)
	if _, _, _, err := decodeSeg(enc, true, false, 4, 3); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong width: err = %v", err)
	}
}

// spillFile writes the given runs (each pre-sorted, single segment) through
// a real Writer and returns the open file plus per-run infos.
func spillFile(t *testing.T, runs [][]uint64, vals [][]uint32, compress bool, blockTuples int) (*os.File, []RunInfo) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "spill.run"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	w, err := NewWriter(f, false, compress, blockTuples)
	if err != nil {
		t.Fatal(err)
	}
	infos := make([]RunInfo, len(runs))
	for i := range runs {
		info, err := w.WriteRun(runs[i], nil, vals[i], []uint64{0, uint64(len(runs[i]))})
		if err != nil {
			t.Fatal(err)
		}
		infos[i] = info
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return f, infos
}

func TestMergerYieldsGlobalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, compress := range []bool{false, true} {
		for _, k := range []int{1, 2, 3, 7, 16} {
			runs := make([][]uint64, k)
			vals := make([][]uint32, k)
			type pair struct {
				key uint64
				val uint32
			}
			var all []pair
			for i := range runs {
				n := 1 + rng.Intn(2000)
				keys := make([]uint64, n)
				vs := make([]uint32, n)
				for j := range keys {
					keys[j] = uint64(rng.Intn(5000)) // plenty of duplicates
					vs[j] = rng.Uint32()
				}
				sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
				runs[i], vals[i] = keys, vs
				for j := range keys {
					all = append(all, pair{keys[j], vs[j]})
				}
			}
			f, infos := spillFile(t, runs, vals, compress, 64)
			rs := make([]*SegReader, k)
			for i := range rs {
				rs[i] = NewSegReader(f, infos[i].Segs[0], false, compress, 64)
			}
			m, err := NewMerger(rs)
			if err != nil {
				t.Fatal(err)
			}
			var got int
			var prev uint64
			for {
				_, lo, _, ok, err := m.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				if got > 0 && lo < prev {
					t.Fatalf("k=%d: merge out of order at %d: %d after %d", k, got, lo, prev)
				}
				prev = lo
				got++
			}
			m.Close()
			if got != len(all) {
				t.Fatalf("k=%d compress=%v: merged %d tuples, want %d", k, compress, got, len(all))
			}
		}
	}
}

// TestMergerDeterministicTieBreak pins that equal keys stream in run order,
// so a spilled pipeline's merged sequence is reproducible run to run.
func TestMergerDeterministicTieBreak(t *testing.T) {
	runs := [][]uint64{{5, 5, 9}, {5, 9}, {5, 9, 9}}
	vals := [][]uint32{{1, 2, 3}, {4, 5}, {6, 7, 8}}
	f, infos := spillFile(t, runs, vals, false, 2)
	rs := make([]*SegReader, len(runs))
	for i := range rs {
		rs[i] = NewSegReader(f, infos[i].Segs[0], false, false, 2)
	}
	m, err := NewMerger(rs)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var got []uint32
	for {
		_, _, v, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, v)
	}
	want := []uint32{1, 2, 4, 6, 3, 5, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestSegReaderCloseMidStream pins that abandoning a reader mid-segment
// (the cancellation path) does not deadlock or leak its goroutine.
func TestSegReaderCloseMidStream(t *testing.T) {
	keys := make([]uint64, 10000)
	vals := make([]uint32, 10000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	f, infos := spillFile(t, [][]uint64{keys}, [][]uint32{vals}, false, 16)
	r := NewSegReader(f, infos[0].Segs[0], false, false, 16)
	if b, err := r.Next(); err != nil || b == nil {
		t.Fatalf("first block: %v %v", b, err)
	}
	r.Close()
	r.Close() // idempotent
}

func TestWriterSegmentCuts(t *testing.T) {
	keys := []uint64{1, 2, 3, 4, 5, 6, 7}
	vals := []uint32{1, 2, 3, 4, 5, 6, 7}
	f, err := os.Create(filepath.Join(t.TempDir(), "cut.run"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := NewWriter(f, false, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	info, err := w.WriteRun(keys, nil, vals, []uint64{0, 3, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wantTuples := []uint64{3, 0, 4}
	for d, seg := range info.Segs {
		if seg.Tuples != wantTuples[d] {
			t.Fatalf("segment %d: %d tuples, want %d", d, seg.Tuples, wantTuples[d])
		}
		r := NewSegReader(f, seg, false, false, 2)
		var got []uint64
		for {
			b, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			got = append(got, b.Lo...)
			r.Release(b)
		}
		r.Close()
		if uint64(len(got)) != seg.Tuples {
			t.Fatalf("segment %d decoded %d tuples, want %d", d, len(got), seg.Tuples)
		}
	}
}
