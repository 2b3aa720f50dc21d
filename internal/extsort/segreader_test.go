package extsort

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// writeSegment writes one sorted run as a single segment of blocks of at
// most blockTuples tuples and returns the file and the segment.
func writeSegment(t *testing.T, run []tup, wide bool, blockTuples int) (*os.File, SegInfo) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "seg.run"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	w, err := NewWriter(f, wide, false, blockTuples)
	if err != nil {
		t.Fatal(err)
	}
	lo, val := make([]uint64, len(run)), make([]uint32, len(run))
	var hi []uint64
	if wide {
		hi = make([]uint64, len(run))
	}
	for j, x := range run {
		lo[j], val[j] = x.lo, x.val
		if wide {
			hi[j] = x.hi
		}
	}
	info, err := w.WriteRun(lo, hi, val, []uint64{0, uint64(len(run))})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return f, info.Segs[0]
}

// TestSegReaderTruncatedSegment cuts a three-block raw segment at every
// byte offset. The reader decodes straight from its buffered file reader
// into the block, so a short read anywhere — count, length or any of the
// payload's arrays — must surface as the typed corrupt error: never a
// panic, and never a block that differs from the one written.
func TestSegReaderTruncatedSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, wide := range []bool{false, true} {
		const blockTuples = 40
		run := sortedRun(rng, 3*blockTuples, wide)
		f, seg := writeSegment(t, run, wide, blockTuples)
		for cut := seg.Len - 1; cut >= 0; cut-- {
			if err := f.Truncate(seg.Off + cut); err != nil {
				t.Fatal(err)
			}
			r := NewSegReader(f, seg, wide, false, blockTuples)
			pos := 0
			var err error
			for {
				var b *Block
				b, err = r.Next()
				if b == nil || err != nil {
					break
				}
				if b.Len() != blockTuples {
					t.Fatalf("wide=%v cut=%d: block of %d tuples, want %d", wide, cut, b.Len(), blockTuples)
				}
				for i := range b.Lo {
					x := run[pos+i]
					if b.Lo[i] != x.lo || b.Val[i] != x.val || (wide && b.Hi[i] != x.hi) {
						t.Fatalf("wide=%v cut=%d: tuple %d decoded wrong", wide, cut, pos+i)
					}
				}
				pos += b.Len()
				r.Release(b)
			}
			r.Close()
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("wide=%v cut=%d of %d: err = %v after %d tuples, want ErrCorrupt", wide, cut, seg.Len, err, pos)
			}
		}
	}
}

// TestSegReaderSteadyStateDoesNotAllocate pins the reader's steady state:
// once its two blocks have grown to the segment's block size, a
// Next/Release loop allocates nothing, in the loop or in the decode
// goroutine.
func TestSegReaderSteadyStateDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, wide := range []bool{false, true} {
		const blockTuples = 64
		run := sortedRun(rng, 1100*blockTuples, wide)
		f, seg := writeSegment(t, run, wide, blockTuples)
		r := NewSegReader(f, seg, wide, false, blockTuples)
		pull := func() {
			b, err := r.Next()
			if b == nil || err != nil {
				t.Fatalf("wide=%v: block %v, err %v", wide, b, err)
			}
			r.Release(b)
		}
		for i := 0; i < 8; i++ {
			pull()
		}
		if allocs := testing.AllocsPerRun(1024, pull); allocs != 0 {
			t.Errorf("wide=%v: %.2f allocations per Next/Release, want 0", wide, allocs)
		}
		r.Close()
	}
}
