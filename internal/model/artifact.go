package model

// artifact.go extends the §3.7 cost model to persistent partition
// artifacts: how many bytes an artifact occupies, what emitting and
// reloading one costs, and — the planning question incremental
// repartitioning raises — at what delta fraction rerunning from scratch
// becomes cheaper than merging the delta into a stored base.

import (
	"math"
	"time"
)

// ArtifactBytes returns the modeled on-disk size of a partition artifact:
// the sorted tuple runs (delta/varint block-compressed for narrow 64-bit
// keys, raw for wide ones), the 4R-byte label map, the frequency histogram
// and a small fixed overhead for metadata, TOC and block headers.
func ArtifactBytes(w Workload) int64 {
	tb := float64(w.TupleBytes)
	if tb <= 0 {
		tb = 12
	}
	tupleBytes := float64(w.Tuples) * tb
	if tb <= 12 {
		// Narrow keys persist through the extsort varint/delta codec;
		// sorted keys delta-encode well.
		tupleBytes *= SpillCompressRatio
	}
	return int64(tupleBytes) + 4*w.Reads + 4096
}

// ArtifactWriteSeconds models the artifact emit added to a run: the tuple
// tee overlaps LocalCC on a dedicated worker, so only the final assembly —
// one sequential write of the artifact — is charged.
func ArtifactWriteSeconds(cal Calibration, w Workload) time.Duration {
	if cal.WriteBW <= 0 {
		return 0
	}
	return sec(float64(ArtifactBytes(w)) / cal.WriteBW)
}

// ArtifactReloadSeconds models satisfying a run from a stored artifact:
// one sequential read of the artifact (the k-mer section is CRC-verified
// even though only the labels are dereferenced) plus a linear label scan
// to rebuild component sizes.
func ArtifactReloadSeconds(cal Calibration, w Workload) time.Duration {
	var s float64
	if cal.ReadBW > 0 {
		s += float64(ArtifactBytes(w)) / cal.ReadBW
	}
	if cal.AbsorbOpsPerSec > 0 {
		s += float64(w.Reads) / cal.AbsorbOpsPerSec
	}
	return sec(s)
}

// PredictIncremental models an incremental repartitioning: the full
// pipeline over the delta alone, plus the base/delta merge — a streaming
// read of both artifacts, a 2-way merge pass over their combined tuples,
// and union work for the delta's edges.
func PredictIncremental(cal Calibration, base, delta Workload, c Cluster) time.Duration {
	s := Predict(cal, delta, c).Total().Seconds()
	mergedTuples := float64(base.Tuples + delta.Tuples)
	if cal.ReadBW > 0 {
		s += float64(ArtifactBytes(base)+ArtifactBytes(delta)) / cal.ReadBW
	}
	if cal.EmitTuplesPerSec > 0 {
		// The merge loop is single-stream: decode, compare, run-detect.
		s += mergedTuples / cal.EmitTuplesPerSec
	}
	edges := float64(delta.Edges)
	if edges == 0 {
		edges = float64(delta.Tuples)
	}
	if cal.CCEdgesPerSec > 0 {
		s += edges / cal.CCEdgesPerSec
	}
	if cal.WriteBW > 0 {
		// The merged artifact is written back for chaining.
		merged := base
		merged.Tuples = base.Tuples + delta.Tuples
		merged.Reads = base.Reads + delta.Reads
		s += float64(ArtifactBytes(merged)) / cal.WriteBW
	}
	return sec(s)
}

// scaleWorkload returns w with its volume figures scaled by f (shape
// constants like TupleBytes and ChunkBytes are left alone).
func scaleWorkload(w Workload, f float64) Workload {
	w.Bases = int64(float64(w.Bases) * f)
	w.DiskBytes = int64(float64(w.DiskBytes) * f)
	w.Reads = int64(float64(w.Reads) * f)
	w.Tuples = int64(float64(w.Tuples) * f)
	w.Edges = int64(float64(w.Edges) * f)
	return w
}

// IncrementalCrossover returns the delta fraction below which merging into
// a stored base beats recomputing from scratch: the largest f in (0, 1]
// such that an incremental run with delta = f·w and base = (1−f)·w is
// predicted faster than the full pipeline over w. Returns 1 when
// incremental wins at any fraction (the merge overhead never catches the
// full run's fixed costs), and 0 when it never does.
func IncrementalCrossover(cal Calibration, w Workload, c Cluster) float64 {
	full := Predict(cal, w, c).Total().Seconds()
	wins := func(f float64) bool {
		inc := PredictIncremental(cal,
			scaleWorkload(w, 1-f), scaleWorkload(w, f), c)
		return inc.Seconds() < full
	}
	const eps = 1e-3
	if wins(1) {
		return 1
	}
	if !wins(eps) {
		return 0
	}
	lo, hi := eps, 1.0 // wins(lo), !wins(hi)
	for hi-lo > eps {
		mid := (lo + hi) / 2
		if wins(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Round(lo*1000) / 1000
}
