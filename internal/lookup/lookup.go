// Package lookup implements the query tier's on-disk structure (ROADMAP
// item 5): a compact, page-aligned, mmap-able lookup file (`.mplk`) built
// offline from a partition artifact, and a concurrent read path that answers
// "which component does this k-mer belong to?" with one binary search inside
// one resident page run.
//
// File layout (format v1):
//
//	offset 0      magic "MPLK" + version byte + 3 reserved bytes
//	              zero padding to the 4 KiB page boundary
//	offset 4096   section: blocks  (fixed-stride, page-aligned key blocks)
//	              section: fence   (first key of every block, 16 bytes each)
//	              section: shards  (contiguous block ranges, 16 bytes each)
//	              section: hist    (k-mer frequency histogram, u64 per bin)
//	              section: meta    (JSON Meta)
//	trailer       TOC: one 32-byte entry per section
//	              uint32 TOC byte length, uint32 CRC32C(TOC)
//	              tail magic "MPLKend1"
//
// Each block is a structure-of-arrays page run holding blockKeys sorted keys
// plus their component label and multiplicity:
//
//	64-bit keys (k ≤ 31):  256 keys ×(lo u64 | label u32 | count u32) = 4096 B (1 page)
//	128-bit keys (k ≤ 63): 512 keys ×(hi u64 | lo u64 | label u32 | count u32) = 12288 B (3 pages)
//
// The final block pads unused slots with all-ones sentinel keys (never a
// valid ≤63-base canonical k-mer) and zero counts. The fence section (one
// first-key per block) is decoded into RAM at Open, so a Get is: binary
// search the shard table, binary search the shard's fences, then one binary
// search inside a single block — the only file bytes touched are that
// block's pages. Shards are contiguous balanced runs of whole blocks over
// the globally sorted key space, the same balanced-range partitioning the
// pipeline's k-mer→rank split uses (index.Partition), cut at build time.
//
// The framing — magics, section CRCs, the trailing TOC and its checks, and
// the durable commit — is internal/container's, shared with `.mpa`; this
// package holds the section ids, the block geometry and Meta. Unlike `.mpa`
// (CRC32 IEEE), every section CRC here is CRC32C (Castagnoli), pinned by
// TestLookupFormatGolden. The page padding after the head magic lies
// outside every section and is not checksummed.
package lookup

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"metaprep/internal/container"
)

// Format constants, pinned by TestLookupFormatGolden. Bumping FormatVersion
// is a breaking change: old readers must reject new files and vice versa.
const (
	FormatVersion = 1
	pageSize      = 4096

	// Block geometry. Strides are page multiples so every block starts on a
	// page boundary (the blocks section itself starts at offset pageSize).
	blockKeys64    = 256 // 256×(8+4+4) = 4096 B, exactly one page
	blockStride64  = 4096
	blockKeys128   = 512 // 512×(8+8+4+4) = 12288 B, three pages
	blockStride128 = 12288
)

// Section ids. Part of the format; new section kinds append.
const (
	secBlocks = 1
	secFence  = 2
	secShards = 3
	secHist   = 4
	secMeta   = 5
)

// ErrBadLookup is the sentinel wrapped by every structural error in a
// lookup file: bad magic, truncated file, checksum mismatch, inconsistent
// geometry. Callers test with errors.Is(err, ErrBadLookup).
var ErrBadLookup = errors.New("bad or corrupt lookup file")

// FormatError reports a structural defect in a lookup file. It unwraps to
// ErrBadLookup.
type FormatError = container.FormatError

// le decodes every multi-byte field: the format is little-endian.
var le = binary.LittleEndian

// spec is the `.mplk` container format.
var spec = &container.Spec{
	Kind:  "lookup",
	Head:  [8]byte{'M', 'P', 'L', 'K', FormatVersion, 0, 0, 0},
	Tail:  [8]byte{'M', 'P', 'L', 'K', 'e', 'n', 'd', '1'},
	Table: crc32.MakeTable(crc32.Castagnoli),
	Err:   ErrBadLookup,
	Names: []string{secBlocks: "blocks", secFence: "fence", secShards: "shards", secHist: "hist", secMeta: "meta"},
}

// Meta is the provenance record stored in the meta section (JSON so the
// format can grow fields without a version bump).
type Meta struct {
	// K and M are the k-mer and minimizer lengths of the source artifact.
	K int `json:"k"`
	M int `json:"m"`
	// Wide marks 128-bit keys (k > 31) and selects the block geometry.
	Wide bool `json:"wide"`
	// BlockKeys is the key capacity of each block (geometry check).
	BlockKeys int `json:"block_keys"`
	// Keys is the number of distinct k-mers stored; Blocks and Shards
	// describe the layout.
	Keys   uint64 `json:"keys"`
	Blocks int    `json:"blocks"`
	Shards int    `json:"shards"`
	// Reads and FilterMin/FilterMax are carried over from the source
	// artifact's provenance.
	Reads     uint32 `json:"reads"`
	FilterMin int    `json:"filter_min"`
	FilterMax int    `json:"filter_max"`
	// IndexDigest pins the index that produced the source artifact.
	IndexDigest string `json:"index_digest,omitempty"`
	// Source is the base name of the artifact the lookup was built from;
	// SourceTuples its tuple count before dedup.
	Source       string `json:"source,omitempty"`
	SourceTuples uint64 `json:"source_tuples"`
}

// geometry returns the block geometry for a key width.
func geometry(wide bool) (blockKeys, stride int) {
	if wide {
		return blockKeys128, blockStride128
	}
	return blockKeys64, blockStride64
}
