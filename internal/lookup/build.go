package lookup

import (
	"encoding/json"
	"io"
	"math"
	"path/filepath"

	"metaprep/internal/artifact"
	"metaprep/internal/container"
)

// DefaultShards is the shard count used when BuildOptions.Shards is unset.
const DefaultShards = 16

// BuildOptions configure the offline builder.
type BuildOptions struct {
	// Shards is the number of contiguous block ranges the key space is cut
	// into (clamped to the block count; DefaultShards when ≤ 0). Queries
	// for different shards never touch the same pages, which is what makes
	// shard-parallel batch execution cache-friendly.
	Shards int
}

// BuildStats summarize a build.
type BuildStats struct {
	Keys   uint64 // distinct k-mers stored
	Blocks int
	Shards int
	Bytes  int64 // final file size
}

// Build converts an open artifact into a lookup file at path in a single
// streaming pass over the sorted tuple section: equal-key runs are collapsed
// on the fly into (key, label, multiplicity) entries and appended to
// fixed-stride blocks, so nothing but the label map (the serving payload
// itself) and one block buffer is ever resident. The file is written to a
// temp name in path's directory and committed into place on success
// (container.WriteFile).
//
// Partition artifacts map each key to the component label of its first read
// and its tuple multiplicity; kmerset artifacts (whose tuple value already
// is the multiplicity) map to label 0.
func Build(ar *artifact.Reader, path string, opts BuildOptions) (BuildStats, error) {
	var stats BuildStats
	err := container.WriteFile(path, func(f io.Writer) (err error) {
		stats, err = build(spec.NewWriter(f), ar, opts)
		return err
	})
	return stats, err
}

// build writes the lookup's sections through w.
func build(w *container.Writer, ar *artifact.Reader, opts BuildOptions) (BuildStats, error) {
	am := ar.Meta()
	partition := am.Kind == artifact.KindPartition
	var labels []uint32
	if partition {
		var err error
		if labels, err = ar.Labels(); err != nil {
			return BuildStats{}, err
		}
	}
	hist, err := ar.Hist()
	if err != nil {
		return BuildStats{}, err
	}
	blockKeys, stride := geometry(am.Wide)

	// Pad the head to the first page so the blocks section is page-aligned
	// from offset pageSize on.
	w.Write(make([]byte, pageSize-container.HeaderLen))
	var blkFlags uint8
	if am.Wide {
		blkFlags = 1
	}
	w.Begin(secBlocks, blkFlags)

	// SoA offsets inside one block.
	var hiOff, loOff, labOff, cntOff int
	if am.Wide {
		hiOff, loOff = 0, 8*blockKeys
		labOff = loOff + 8*blockKeys
	} else {
		loOff = 0
		labOff = 8 * blockKeys
	}
	cntOff = labOff + 4*blockKeys

	blk := make([]byte, stride)
	var (
		kib      int // keys in the current block
		keys     uint64
		nblocks  int
		fenceBuf []byte
	)
	emit := func(hi, lo uint64, label uint32, count uint64) error {
		if kib == 0 {
			fenceBuf = le.AppendUint64(fenceBuf, hi)
			fenceBuf = le.AppendUint64(fenceBuf, lo)
		}
		if am.Wide {
			le.PutUint64(blk[hiOff+8*kib:], hi)
		}
		le.PutUint64(blk[loOff+8*kib:], lo)
		le.PutUint32(blk[labOff+4*kib:], label)
		if count > math.MaxUint32 {
			count = math.MaxUint32
		}
		le.PutUint32(blk[cntOff+4*kib:], uint32(count))
		kib++
		keys++
		if kib == blockKeys {
			nblocks++
			kib = 0
			_, err := w.Write(blk)
			return err
		}
		return nil
	}
	flushPartial := func() error {
		if kib == 0 {
			return nil
		}
		// Pad unused slots with all-ones sentinel keys (sorting after every
		// valid k-mer) and zero counts, which Get treats as misses.
		for i := kib; i < blockKeys; i++ {
			if am.Wide {
				le.PutUint64(blk[hiOff+8*i:], ^uint64(0))
			}
			le.PutUint64(blk[loOff+8*i:], ^uint64(0))
			le.PutUint32(blk[labOff+4*i:], 0)
			le.PutUint32(blk[cntOff+4*i:], 0)
		}
		nblocks++
		kib = 0
		_, err := w.Write(blk)
		return err
	}

	st, err := ar.Kmers()
	if err != nil {
		return BuildStats{}, err
	}
	var (
		curHi, curLo uint64
		curLabel     uint32
		curCount     uint64
		have         bool
	)
	for {
		hi, lo, val, ok, serr := st.Next()
		if serr != nil {
			st.Close()
			return BuildStats{}, serr
		}
		if !ok {
			break
		}
		if have && hi == curHi && lo == curLo {
			if partition {
				curCount++
			} else {
				curCount += uint64(val)
			}
			continue
		}
		if have {
			if hi < curHi || (hi == curHi && lo < curLo) {
				st.Close()
				return BuildStats{}, spec.Errorf(ar.Path(), "kmers", "tuple stream is not sorted")
			}
			if err := emit(curHi, curLo, curLabel, curCount); err != nil {
				st.Close()
				return BuildStats{}, err
			}
		}
		curHi, curLo, have = hi, lo, true
		if partition {
			if int(val) >= len(labels) {
				st.Close()
				return BuildStats{}, spec.Errorf(ar.Path(), "kmers", "read id %d outside label map (%d reads)", val, len(labels))
			}
			curLabel, curCount = labels[val], 1
		} else {
			curLabel, curCount = 0, uint64(val)
		}
	}
	st.Close()
	if have {
		if err := emit(curHi, curLo, curLabel, curCount); err != nil {
			return BuildStats{}, err
		}
	}
	if err := flushPartial(); err != nil {
		return BuildStats{}, err
	}
	w.End(keys)

	shards := opts.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	if nblocks > 0 && shards > nblocks {
		shards = nblocks
	}
	if nblocks == 0 {
		shards = 1
	}
	shardBuf := make([]byte, 16*shards)
	q, r := nblocks/shards, nblocks%shards
	first := 0
	for s := 0; s < shards; s++ {
		n := q
		if s < r {
			n++
		}
		sk := uint64(n) * uint64(blockKeys)
		if n > 0 && first+n == nblocks { // last shard owns the partial tail block
			sk = keys - uint64(first)*uint64(blockKeys)
		}
		le.PutUint32(shardBuf[16*s:], uint32(first))
		le.PutUint32(shardBuf[16*s+4:], uint32(n))
		le.PutUint64(shardBuf[16*s+8:], sk)
		first += n
	}

	histBuf := make([]byte, 8*len(hist))
	for i, v := range hist {
		le.PutUint64(histBuf[8*i:], v)
	}

	meta := Meta{
		K: am.K, M: am.M, Wide: am.Wide,
		BlockKeys: blockKeys, Keys: keys, Blocks: nblocks, Shards: shards,
		Reads: am.Reads, FilterMin: am.FilterMin, FilterMax: am.FilterMax,
		IndexDigest:  am.IndexDigest,
		Source:       filepath.Base(ar.Path()),
		SourceTuples: am.Tuples,
	}
	metaBuf, err := json.Marshal(meta)
	if err != nil {
		return BuildStats{}, err
	}

	for _, sec := range []struct {
		id    uint8
		buf   []byte
		items uint64
	}{
		{secFence, fenceBuf, uint64(nblocks)},
		{secShards, shardBuf, uint64(shards)},
		{secHist, histBuf, uint64(len(hist))},
		{secMeta, metaBuf, 1},
	} {
		w.Begin(sec.id, 0)
		w.Write(sec.buf)
		w.End(sec.items)
	}
	if err := w.Finish(); err != nil {
		return BuildStats{}, err
	}
	return BuildStats{Keys: keys, Blocks: nblocks, Shards: shards, Bytes: w.Offset()}, nil
}
