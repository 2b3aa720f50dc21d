package index

import "sort"

// ChunkHist is one chunk's m-mer histogram in compact form: one byte per
// bin, with the rare counts ≥ 255 kept exactly in a per-chunk overflow table
// sorted by bin. A chunk holds a few MiB of sequence spread over 4^m bins,
// so almost every count fits in a byte, and the FASTQPart table that every
// task holds (§3.7) shrinks 4× against 32-bit counts without losing
// exactness. The zero value is an empty histogram of zero bins.
type ChunkHist struct {
	// small[b] is bin b's count when below histSat; histSat marks a bin
	// whose count lives in over.
	small []uint8
	// over holds one entry per saturated bin, in ascending bin order.
	over []histOverflow
}

// histOverflow is an exact count for one saturated bin.
type histOverflow struct {
	bin, count uint32
}

// histSat is the byte value that marks a bin's count as held in the
// overflow table; counts below it are stored in the byte itself.
const histSat = 255

// overflowBytes is the resident size of one overflow entry.
const overflowBytes = 8

// NewChunkHist compacts a per-bin count array.
func NewChunkHist(counts []uint32) ChunkHist {
	h := ChunkHist{small: make([]uint8, len(counts))}
	for b, c := range counts {
		if c < histSat {
			h.small[b] = uint8(c)
			continue
		}
		h.small[b] = histSat
		h.over = append(h.over, histOverflow{uint32(b), c})
	}
	return h
}

// Count returns bin b's exact count.
func (h *ChunkHist) Count(b int) uint32 {
	if c := h.small[b]; c < histSat {
		return uint32(c)
	}
	return h.over[h.overAt(b)].count
}

// RangeCount returns the exact count summed over bins [lo, hi): the byte
// counts, with each saturated bin's marker replaced by its overflow count.
func (h *ChunkHist) RangeCount(lo, hi int) uint64 {
	var sum uint64
	for _, c := range h.small[lo:hi] {
		sum += uint64(c)
	}
	for _, o := range h.over[h.overAt(lo):] {
		if int(o.bin) >= hi {
			break
		}
		sum += uint64(o.count) - histSat
	}
	return sum
}

// addTo adds every bin's count to dst[bin].
func (h *ChunkHist) addTo(dst []uint64) {
	for b, c := range h.small {
		dst[b] += uint64(c)
	}
	for _, o := range h.over {
		dst[o.bin] += uint64(o.count) - histSat
	}
}

// MemoryBytes returns the histogram's resident size: a byte per bin plus
// the overflow table.
func (h *ChunkHist) MemoryBytes() int64 {
	return int64(len(h.small)) + overflowBytes*int64(len(h.over))
}

// overAt returns the index of the first overflow entry at or after bin b.
func (h *ChunkHist) overAt(b int) int {
	return sort.Search(len(h.over), func(i int) bool { return int(h.over[i].bin) >= b })
}
