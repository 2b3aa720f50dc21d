package model

import (
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"metaprep/internal/kmer"
	"metaprep/internal/radix"
	"metaprep/internal/unionfind"
)

// Calibrate measures this host's kernel throughputs with short
// micro-benchmarks (a few hundred milliseconds total) and returns a
// Calibration for model predictions on this machine. dir is scratch space
// for the I/O probe (e.g. os.TempDir()).
//
// In-process "communication" is a memory copy, so CommBW is set from
// measured copy bandwidth and the warmup term is zero: on one host the
// model's multi-node predictions describe a cluster of nodes with this
// host's core, fed by an Edison-like interconnect unless the caller
// overrides CommBW.
func Calibrate(dir string) Calibration {
	cal := Calibration{
		Name:          "host",
		CCOptBoost:    measureCCOptBoost(),
		IOScalesWithT: false,
		Latency:       time.Microsecond,
	}
	cal.ScanBasesPerSec = measureScan()
	cal.EmitTuplesPerSec = measureEmit()
	cal.SortTuplesPerSec = measureSort()
	cal.CCEdgesPerSec = measureCC()
	cal.AbsorbOpsPerSec = measureAbsorb()
	cal.ReadBW, cal.WriteBW = measureIO(dir)
	cal.CommBW = measureCopyBW()
	cal.CommWarmup = 0
	cal.LookupProbesPerSec = measureLookupProbes()
	return cal
}

// measureLookupProbes times the query tier's probe shape at the reference
// 2^20 keys: a fence binary search over block first-keys followed by an
// in-block search over a 256-key run, matching internal/lookup's two
// resident levels.
func measureLookupProbes() float64 {
	const keys = 1 << 20
	const blockKeys = 256
	rng := rand.New(rand.NewSource(9))
	sorted := make([]uint64, keys)
	v := uint64(0)
	for i := range sorted {
		v += 1 + uint64(rng.Intn(1<<20))
		sorted[i] = v
	}
	fence := make([]uint64, keys/blockKeys)
	for i := range fence {
		fence[i] = sorted[i*blockKeys]
	}
	probes := make([]uint64, 1<<16)
	for i := range probes {
		probes[i] = sorted[rng.Intn(keys)]
	}
	var sink uint64
	start := time.Now()
	reps := 20
	for r := 0; r < reps; r++ {
		for _, p := range probes {
			i, j := 0, len(fence)
			for i < j {
				m := int(uint(i+j) >> 1)
				if p < fence[m] {
					j = m
				} else {
					i = m + 1
				}
			}
			blk := (i - 1) * blockKeys
			i, j = blk, blk+blockKeys
			for i < j {
				m := int(uint(i+j) >> 1)
				if sorted[m] < p {
					i = m + 1
				} else {
					j = m
				}
			}
			sink += sorted[i]
		}
	}
	el := time.Since(start).Seconds()
	_ = sink
	return float64(reps) * float64(len(probes)) / el
}

func synthSeq(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	s := make([]byte, n)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	return s
}

// measureScan times what KmerGen spends, every pass, on the k-mers the pass
// filters out: the block roll (Roller.Next64) and the branch-free
// selection that compacts each block to the pass's bins, here over a bin
// range that keeps nothing. That is the §3.7 S·scan term.
func measureScan() float64 {
	const k, m = 27, 12
	seq := synthSeq(1 << 20)
	var r kmer.Roller
	var block kmer.Block
	shift := uint(2 * (k - m))
	empty := uint64(1) << (2 * m) // [4^m, 4^m) holds no bin
	kept := 0
	start := time.Now()
	reps := 50
	for rep := 0; rep < reps; rep++ {
		r.Reset(seq, k)
		for _, keys := r.Next64(&block); len(keys) > 0; _, keys = r.Next64(&block) {
			n := 0
			for _, key := range keys {
				keys[n] = key
				n += kmer.InRange(key>>shift, empty, empty)
			}
			kept += n
		}
	}
	el := time.Since(start).Seconds()
	_ = kept
	return float64(reps) * float64(len(seq)) / el
}

// measureEmit times the block roll that stores every key with a 32-bit
// value into flat columns, as KmerGen stores a pass's tuples in kmerOut:
// the closest proxy for KmerGen's per-tuple cost.
func measureEmit() float64 {
	seq := synthSeq(1 << 20)
	lo := make([]uint64, len(seq))
	val := make([]uint32, len(seq))
	var r kmer.Roller
	var block kmer.Block
	n := 0
	start := time.Now()
	reps := 50
	for rep := 0; rep < reps; rep++ {
		r.Reset(seq, 27)
		n = 0
		for _, keys := r.Next64(&block); len(keys) > 0; _, keys = r.Next64(&block) {
			for _, key := range keys {
				lo[n], val[n] = key, uint32(rep)
				n++
			}
		}
	}
	el := time.Since(start).Seconds()
	return float64(reps) * float64(n) / el
}

// measureSort times LocalSort's kernel as the pipeline runs it: one warm
// radix.BinSorter finishing 2^20 tuples a receive group at a time, in
// groups of 2^14 tuples over 43 significant bits (a 27-mer's 38 below its
// m-mer bin plus a 32-bin group's 5). Each group is shaped like a
// metagenome's: half its tuples are families of 1–8 keys that share all but
// their low 8 bits, each key seen 20–300 times (repeats and homologs), and
// the rest keys seen 1–7 times, in shuffled arrival order.
func measureSort() float64 {
	const n, group, sig = 1 << 20, 1 << 14, 43
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint64, 0, n)
	vals := make([]uint32, n)
	for g := uint64(0); g < n/group; g++ {
		start := len(keys)
		add := func(x uint64, copies, upTo int) {
			for ; copies > 0 && len(keys) < upTo; copies-- {
				keys = append(keys, g<<sig|x&(1<<sig-1))
			}
		}
		for len(keys) < start+group/2 {
			prefix := rng.Uint64() &^ 0xFF
			for f := 1 + rng.Intn(8); f > 0; f-- {
				add(prefix|uint64(rng.Intn(256)), 20+rng.Intn(281), start+group/2)
			}
		}
		for len(keys) < start+group {
			add(rng.Uint64(), 1+rng.Intn(7), start+group)
		}
		rng.Shuffle(group, func(i, j int) { keys[start+i], keys[start+j] = keys[start+j], keys[start+i] })
	}
	for i := range vals {
		vals[i] = uint32(i)
	}
	work := make([]uint64, n)
	workV := make([]uint32, n)
	var bs radix.BinSorter
	bs.Grow(group, false)
	var el time.Duration
	reps := 5
	for r := 0; r < reps; r++ {
		copy(work, keys)
		copy(workV, vals)
		start := time.Now()
		for lo := 0; lo < n; lo += group {
			bs.Sort64(work[lo:lo+group], workV[lo:lo+group], sig)
		}
		el += time.Since(start)
	}
	return float64(reps) * float64(n) / el.Seconds()
}

func measureCC() float64 {
	n := 1 << 20
	rng := rand.New(rand.NewSource(3))
	edges := make([]unionfind.Edge, n)
	for i := range edges {
		edges[i] = unionfind.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
	}
	start := time.Now()
	reps := 3
	for r := 0; r < reps; r++ {
		d := unionfind.New(n)
		d.ProcessEdges(edges, 1)
	}
	el := time.Since(start).Seconds()
	return float64(reps) * float64(n) / el
}

// measureCCOptBoost compares edge processing against read IDs (scattered)
// with processing against component roots (concentrated), the §3.5.1
// locality effect.
func measureCCOptBoost() float64 {
	n := 1 << 20
	rng := rand.New(rand.NewSource(4))
	scattered := make([]unionfind.Edge, n)
	for i := range scattered {
		scattered[i] = unionfind.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
	}
	concentrated := make([]unionfind.Edge, n)
	for i := range concentrated {
		concentrated[i] = unionfind.Edge{U: uint32(rng.Intn(1024)), V: uint32(rng.Intn(1024))}
	}
	timeFor := func(edges []unionfind.Edge) float64 {
		start := time.Now()
		d := unionfind.New(n)
		d.ProcessEdges(edges, 1)
		return time.Since(start).Seconds()
	}
	slow := timeFor(scattered)
	fast := timeFor(concentrated)
	if fast <= 0 {
		return 1
	}
	boost := slow / fast
	if boost < 1 {
		boost = 1
	}
	return boost
}

func measureAbsorb() float64 {
	n := 1 << 20
	rng := rand.New(rand.NewSource(5))
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(rng.Intn(n))
	}
	d := unionfind.New(n)
	start := time.Now()
	d.Absorb(p, 1)
	el := time.Since(start).Seconds()
	return float64(n) / el
}

func measureIO(dir string) (readBW, writeBW float64) {
	path := filepath.Join(dir, "metaprep_io_probe.bin")
	defer os.Remove(path)
	buf := make([]byte, 32<<20)
	start := time.Now()
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return 500e6, 300e6
	}
	writeBW = float64(len(buf)) / time.Since(start).Seconds()
	start = time.Now()
	got, err := os.ReadFile(path)
	if err != nil || len(got) != len(buf) {
		return 500e6, writeBW
	}
	readBW = float64(len(buf)) / time.Since(start).Seconds()
	return readBW, writeBW
}

func measureCopyBW() float64 {
	src := make([]byte, 64<<20)
	dst := make([]byte, 64<<20)
	start := time.Now()
	copy(dst, src)
	copy(src, dst)
	el := time.Since(start).Seconds()
	return 2 * float64(len(src)) / el
}
