// Package extsort implements the sorted-run codec and k-way merge the
// partition artifact builds on: the .mpa kmers section is a sequence of
// extsort blocks, and an incremental run (Config.ArtifactDelta) merges a
// stored artifact's sorted tuples with a delta's through a loser tree. The
// pipeline's own out-of-core LocalSort does not use it: it spills into
// exact bin buckets (internal/core/spill.go) and needs no merge.
//
// A run file is a fixed 8-byte header followed by runs. Each run is a
// sequence of segments (one per LocalCC thread, cut at the partition's
// thread bin boundaries so equal keys never straddle a segment), and each
// segment is a sequence of blocks:
//
//	block := uvarint(count) uvarint(payloadLen) payload
//
// The raw payload is the structure-of-arrays tuple data verbatim
// (little-endian lo words, then hi words in 128-bit mode, then values). The
// compressed payload (64-bit keys only) exploits that blocks are sorted:
// the first key is a uvarint and every later key a uvarint delta to its
// predecessor, with values still raw — sorted k-mer keys are dense, so
// deltas are small and the keys shrink to a few bytes each.
//
// Decoding is strict: every length, count and delta is bounds-checked, and
// corrupt input yields an error wrapping ErrCorrupt — never a panic or an
// out-of-bounds read (FuzzRunCodec pins this).
package extsort

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// FormatVersion is the on-disk run format version, stored in every
// file header. Readers reject any other version, so a format change can
// never silently misparse old run files (TestFormatVersionPinned).
const FormatVersion = 1

// HeaderLen is the fixed run-file header size in bytes.
const HeaderLen = 8

// Header flag bits.
const (
	flagWide     = 1 << 0 // 128-bit keys (20-byte tuples)
	flagCompress = 1 << 1 // varint/delta key encoding
)

// ErrCorrupt is the sentinel every decode failure wraps, so callers can
// classify damaged run data with one errors.Is.
var ErrCorrupt = errors.New("extsort: corrupt run data")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// EncodeHeader renders the run-file header for the given tuple shape.
func EncodeHeader(wide, compress bool) [HeaderLen]byte {
	var h [HeaderLen]byte
	copy(h[:], "MPRN")
	h[4] = FormatVersion
	if wide {
		h[5] |= flagWide
	}
	if compress {
		h[5] |= flagCompress
	}
	return h
}

// Block is one decoded block of tuples in structure-of-arrays form (Hi is
// nil in 64-bit mode). Blocks circulate through a SegReader's buffer ring.
type Block struct {
	Lo  []uint64
	Hi  []uint64
	Val []uint32
}

// Len returns the tuple count.
func (b *Block) Len() int { return len(b.Lo) }

// rawPayloadLen is the encoded payload size of n raw tuples.
func rawPayloadLen(n int, wide bool) int {
	per := 12
	if wide {
		per = 20
	}
	return n * per
}

// AppendBlock encodes one block of n = len(lo) tuples onto dst and returns
// the extended slice. hi must be nil exactly in 64-bit mode; compress
// requires 64-bit keys (the caller-facing knob validation enforces it).
func AppendBlock(dst []byte, lo, hi []uint64, val []uint32, compress bool) []byte {
	n := len(lo)
	var tmp [binary.MaxVarintLen64]byte
	dst = binary.AppendUvarint(dst, uint64(n))
	if !compress {
		dst = binary.AppendUvarint(dst, uint64(rawPayloadLen(n, hi != nil)))
		for _, k := range lo {
			binary.LittleEndian.PutUint64(tmp[:8], k)
			dst = append(dst, tmp[:8]...)
		}
		for _, k := range hi {
			binary.LittleEndian.PutUint64(tmp[:8], k)
			dst = append(dst, tmp[:8]...)
		}
		for _, v := range val {
			binary.LittleEndian.PutUint32(tmp[:4], v)
			dst = append(dst, tmp[:4]...)
		}
		return dst
	}
	// Delta-encode the keys into a scratch region first: the payload length
	// prefix must precede bytes whose size depends on the data.
	payload := make([]byte, 0, rawPayloadLen(n, false))
	prev := uint64(0)
	for i, k := range lo {
		if i == 0 {
			payload = binary.AppendUvarint(payload, k)
		} else {
			// Unsigned wraparound difference: round-trips any key order,
			// though written blocks are always sorted and deltas tiny.
			payload = binary.AppendUvarint(payload, k-prev)
		}
		prev = k
	}
	for _, v := range val {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		payload = append(payload, tmp[:4]...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// decodePayload fills b with the n tuples of one block payload. The payload
// slice must be exactly the block's encoded payload; trailing or missing
// bytes are corruption.
func decodePayload(payload []byte, n int, wide, compress bool, b *Block) error {
	b.resize(n, wide)
	if !compress {
		if len(payload) != rawPayloadLen(n, wide) {
			return corrupt("raw payload %d bytes, want %d for %d tuples", len(payload), rawPayloadLen(n, wide), n)
		}
		for i := 0; i < n; i++ {
			b.Lo[i] = binary.LittleEndian.Uint64(payload[i*8:])
		}
		payload = payload[n*8:]
		if wide {
			for i := 0; i < n; i++ {
				b.Hi[i] = binary.LittleEndian.Uint64(payload[i*8:])
			}
			payload = payload[n*8:]
		}
		for i := 0; i < n; i++ {
			b.Val[i] = binary.LittleEndian.Uint32(payload[i*4:])
		}
		return nil
	}
	if wide {
		return corrupt("compressed payload with 128-bit keys")
	}
	var prev uint64
	for i := 0; i < n; i++ {
		d, w := binary.Uvarint(payload)
		if w <= 0 {
			return corrupt("truncated key varint at tuple %d", i)
		}
		payload = payload[w:]
		if i == 0 {
			prev = d
		} else {
			prev += d
		}
		b.Lo[i] = prev
	}
	if len(payload) != 4*n {
		return corrupt("compressed payload leaves %d value bytes, want %d", len(payload), 4*n)
	}
	for i := 0; i < n; i++ {
		b.Val[i] = binary.LittleEndian.Uint32(payload[i*4:])
	}
	return nil
}

// resize sets b to n tuples, reusing its slices' capacity. Hi is nil in
// 64-bit mode.
func (b *Block) resize(n int, wide bool) {
	b.Lo = grow64(b.Lo, n)
	b.Val = growVal(b.Val, n)
	if wide {
		b.Hi = grow64(b.Hi, n)
	} else {
		b.Hi = nil
	}
}

func grow64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growVal(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}
