package extsort

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzRunCodec fuzzes the block codec from both directions, decoding through
// a SegReader. Forward: bytes are reinterpreted as tuples, encoded raw and
// delta-compressed, and both encodings must decode back bit-identically.
// Backward: the raw fuzz input is fed straight to the decoder as a segment,
// which must either succeed or return an error wrapping ErrCorrupt — never
// panic, hang, or over-allocate.
func FuzzRunCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add(AppendBlock(nil, []uint64{1, 2, 3}, nil, []uint32{7, 8, 9}, false))
	f.Add(AppendBlock(nil, []uint64{10, 10, 1 << 62}, nil, []uint32{1, 2, 3}, true))
	wideSeed := AppendBlock(nil, []uint64{5, 6}, []uint64{1, 2}, []uint32{4, 4}, false)
	f.Add(wideSeed)

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxTuples = 512

		// Backward: arbitrary bytes through every decoder shape.
		for _, wide := range []bool{false, true} {
			for _, compress := range []bool{false, true} {
				if wide && compress {
					continue
				}
				lo, _, _, err := decodeSeg(data, wide, compress, maxTuples, maxTuples)
				if err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("wide=%v compress=%v: untyped decode error %v", wide, compress, err)
				}
				if err == nil && len(lo) != maxTuples {
					t.Fatalf("wide=%v compress=%v: segment decoded %d tuples, want %d", wide, compress, len(lo), maxTuples)
				}
			}
		}

		// Forward: derive up to maxTuples tuples from the input and
		// round-trip them through both encodings.
		n := len(data) / 12
		if n == 0 {
			return
		}
		if n > maxTuples {
			n = maxTuples
		}
		lo := make([]uint64, n)
		val := make([]uint32, n)
		for i := 0; i < n; i++ {
			lo[i] = binary.LittleEndian.Uint64(data[i*12:])
			val[i] = binary.LittleEndian.Uint32(data[i*12+8:])
		}
		for _, compress := range []bool{false, true} {
			enc := AppendBlock(nil, lo, nil, val, compress)
			gotLo, _, gotVal, err := decodeSeg(enc, false, compress, n, uint64(n))
			if err != nil {
				t.Fatalf("compress=%v: round-trip decode failed: %v", compress, err)
			}
			if len(gotLo) != n {
				t.Fatalf("compress=%v: %d tuples back, want %d", compress, len(gotLo), n)
			}
			for i := 0; i < n; i++ {
				if gotLo[i] != lo[i] || gotVal[i] != val[i] {
					t.Fatalf("compress=%v: tuple %d mismatch", compress, i)
				}
			}
		}

		// Corruption: flipping any single byte of a valid raw encoding must
		// never panic (it may still decode, e.g. a value byte flip).
		enc := AppendBlock(nil, lo, nil, val, true)
		if len(enc) > 0 {
			mut := bytes.Clone(enc)
			i := int(val[0]) % len(mut)
			mut[i] ^= 0xff
			if _, _, _, err := decodeSeg(mut, false, true, n, uint64(n)); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flipped byte %d: untyped decode error %v", i, err)
			}
		}
	})
}
