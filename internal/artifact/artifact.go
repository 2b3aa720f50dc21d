// Package artifact defines the versioned on-disk partition artifact: the
// durable product of a pipeline run (ROADMAP item 2). An artifact holds the
// globally sorted canonical k-mer tuple stream (encoded with the
// internal/extsort block codec, so per-thread parts can be copied in
// verbatim and merge readers can stream it back without a decode detour),
// the component label map, the k-mer frequency histogram, and provenance
// tying the file to the exact index and configuration that produced it.
//
// File layout (format v1):
//
//	offset 0     magic "MPAF" + version byte + 3 reserved bytes
//	             section: kmers   (extsort blocks, globally sorted)
//	             section: labels  (raw little-endian uint32 per read)
//	             section: hist    (raw little-endian uint64 per bin)
//	             section: meta    (JSON Meta)
//	trailer      TOC: one 32-byte entry per section
//	             uint32 TOC byte length, uint32 CRC32(TOC)
//	             tail magic "MPAFend1"
//
// The framing — magics, section CRCs (CRC32 IEEE here), the trailing TOC
// and its checks, and the durable commit — is internal/container's; this
// package holds the section ids, their encodings and Meta. The TOC lives at
// the end so writers emit sections in one streaming pass — the pipeline
// writes k-mer blocks while LocalCC is still consuming the same buffers,
// with no second pass over the data.
package artifact

import (
	"errors"
	"hash/crc32"

	"metaprep/internal/container"
)

// FormatVersion is the version byte of the head magic, pinned by
// TestFormatGolden. Bumping it is a breaking change: old readers must reject
// new files and vice versa.
const FormatVersion = 1

// Section ids. The ids are part of the format; new section kinds append.
const (
	secKmers  = 1
	secLabels = 2
	secHist   = 3
	secMeta   = 4
)

// Artifact kinds.
const (
	// KindPartition is a full pipeline product: sorted tuple runs keyed by
	// canonical k-mer with read-id values, plus the label map.
	KindPartition = "partition"
	// KindKmerset is a set-operation product: one tuple per distinct k-mer
	// whose value is its multiplicity (clamped to uint32). No labels.
	KindKmerset = "kmerset"
)

// ErrBadArtifact is the sentinel wrapped by every structural error: bad
// magic, truncated file, checksum mismatch, undecodable section. Callers
// test with errors.Is(err, ErrBadArtifact).
var ErrBadArtifact = errors.New("bad or corrupt artifact")

// ErrMismatch is the sentinel wrapped when a structurally valid artifact
// does not match the requested use: wrong index digest, k/m, filter, or
// kind. Distinct from ErrBadArtifact so callers can distinguish "re-run the
// pipeline" from "the file is damaged".
var ErrMismatch = errors.New("artifact does not match request")

// FormatError reports a structural defect in an artifact file. It unwraps
// to ErrBadArtifact.
type FormatError = container.FormatError

// spec is the `.mpa` container format.
var spec = &container.Spec{
	Kind:  "artifact",
	Head:  [8]byte{'M', 'P', 'A', 'F', FormatVersion, 0, 0, 0},
	Tail:  [8]byte{'M', 'P', 'A', 'F', 'e', 'n', 'd', '1'},
	Table: crc32.IEEETable,
	Err:   ErrBadArtifact,
	Names: []string{secKmers: "kmers", secLabels: "labels", secHist: "hist", secMeta: "meta"},
}

// Meta is the provenance record stored in the meta section. It is JSON so
// the format can grow fields without a version bump; unknown fields are
// ignored on read.
type Meta struct {
	// Kind is KindPartition or KindKmerset.
	Kind string `json:"kind"`
	// K and M are the k-mer and minimizer lengths the tuples were built with.
	K int `json:"k"`
	M int `json:"m"`
	// Wide marks 128-bit keys (k > 32); Compress marks varint/delta block
	// payloads. Both must match the kmers section encoding.
	Wide     bool `json:"wide"`
	Compress bool `json:"compress"`
	// BlockTuples is the max tuples per encoded block — the decode buffer
	// bound readers must honor.
	BlockTuples int `json:"block_tuples"`
	// FilterMin/FilterMax are the frequency filter the labels were computed
	// under (0 = unbounded max).
	FilterMin int `json:"filter_min"`
	FilterMax int `json:"filter_max"`
	// Reads is the read-id space size; len(labels) == Reads for partitions.
	Reads uint32 `json:"reads"`
	// Tuples and Edges summarize the run that produced the artifact.
	Tuples uint64 `json:"tuples"`
	Edges  uint64 `json:"edges"`
	// IndexDigest pins the exact input index (index.Digest). Empty for
	// derived artifacts (incremental merges, set operations).
	IndexDigest string `json:"index_digest,omitempty"`
	// ConfigHash is the producing run's CanonicalHash. Informational only:
	// it covers run-shape knobs (tasks, out dir) that do not affect labels,
	// so compatibility checks use IndexDigest + k/m/filter instead.
	ConfigHash string `json:"config_hash,omitempty"`
	// Op names the derivation for non-pipeline artifacts: "incremental",
	// "union", "intersect", "diff".
	Op string `json:"op,omitempty"`
	// Lineage lists the parents of a derived artifact (index digests when
	// known, file names otherwise).
	Lineage []string `json:"lineage,omitempty"`
}
