package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"metaprep"
	"metaprep/internal/artifact"
	"metaprep/internal/extsort"
	"metaprep/internal/index"
	"metaprep/internal/kmer"
	"metaprep/internal/lookup"
	"metaprep/internal/mpirt"
	"metaprep/internal/radix"
	"metaprep/internal/server"
	"metaprep/internal/unionfind"
)

// layerMetrics fills the per-layer section of a traced run: the core.*
// numbers from the ops themselves, then a replay of the workload's own data
// (its reads, tuples, edges, runs and keys) through each layer's public
// functions, one span per call.
func layerMetrics(e *benchEnv, ss []slice, q *queryRun, spin0, spin1, triad0, triad1 float64) error {
	add := func(name string, v float64, unit, note string) {
		e.rep.perLayer = append(e.rep.perLayer, metric{name, v, unit, note})
	}
	tracedMs := opLatencies(ss, func(s slice) bool { return s.traced })
	plainMs := opLatencies(ss, func(s slice) bool { return !s.traced })
	opMs := median(tracedMs)

	// core: values the pipeline returns in Result.
	var runs []runSummary
	if e.w.query {
		runs = []runSummary{*e.prep.Artifact} // the Tasks=2 run that wrote the served artifact
	} else {
		for _, s := range ss {
			runs = append(runs, *s.run)
		}
	}
	step := func(f func(stepMs) float64) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r.Steps)
		}
		return median(xs)
	}
	add("core.kmergen_io_ms", step(func(s stepMs) float64 { return s.KmerGenIO }), "ms", "median over ops, max over tasks")
	add("core.kmergen_ms", step(func(s stepMs) float64 { return s.KmerGen }), "ms", "")
	add("core.comm_ms", step(func(s stepMs) float64 { return s.Comm }), "ms", "")
	add("core.localsort_ms", step(func(s stepMs) float64 { return s.LocalSort }), "ms", "")
	add("core.localcc_ms", step(func(s stepMs) float64 { return s.LocalCC }), "ms", "")
	add("core.merge_comm_ms", step(func(s stepMs) float64 { return s.MergeComm }), "ms", "0 without a NetworkModel")
	add("core.mergecc_ms", step(func(s stepMs) float64 { return s.MergeCC }), "ms", "")
	add("core.ccio_ms", step(func(s stepMs) float64 { return s.CCIO }), "ms", "")
	r0 := runs[0]
	for _, r := range runs[1:] {
		if r.Tuples != r0.Tuples || r.Edges != r0.Edges || r.Components != r0.Components ||
			r.WireBytes != r0.WireBytes || r.SpillBytes != r0.SpillBytes || r.PlanMemMiB != r0.PlanMemMiB {
			e.rep.fail("core counts differ between ops of one run: %+v vs %+v", r, r0)
			break
		}
	}
	add("core.tuples", float64(r0.Tuples), "count"+exact, "†")
	add("core.edges", float64(r0.Edges), "count"+exact, "†")
	add("core.components", float64(r0.Components), "count"+exact, "†")
	add("core.wire_bytes", float64(r0.WireBytes), "B"+exact, "†")
	add("core.spill_bytes", float64(r0.SpillBytes), "B"+exact, "†")
	add("core.plan_mem_mib", r0.PlanMemMiB, "MiB"+exact, "† planned per task")
	serial := e.prep.Oracle.WallS
	parallel := opMs / 1e3
	if e.w.query {
		parallel = e.prep.Artifact.WallS
	}
	add("core.serial_baseline_s", serial, "s", "Tasks=1 Threads=1 Passes=1 in the set-up child")
	add("core.parallel_speedup", serial/parallel, "x", "serial baseline / op")
	if !e.w.query {
		sum := step(func(s stepMs) float64 { return s.sum() })
		e.rep.info = append(e.rep.info, metric{"core.steps_sum_over_op", sum / median(append(tracedMs, plainMs...)), "x", "sum of step times / op_ms"})
	}

	rp := &replay{e: e, add: add, root: e.tr.begin(e.root, "benchmark", "layer replay")}
	// Latency-sized measurements first: the later ones write hundreds of
	// MiB and leave the kernel flushing behind them.
	if err := rp.serverLayer(ss, q, opMs); err != nil {
		return err
	}
	if err := rp.batchLayers(); err != nil {
		return err
	}
	if err := rp.storeLayers(); err != nil {
		return err
	}
	e.tr.end(rp.root)

	add("host.triad_gb_per_s.before", triad0, "GB/s", "3 x 32 MiB arrays")
	add("host.triad_gb_per_s.after", triad1, "GB/s", "")
	add("host.spin_ms.before", spin0, "ms", "")
	add("host.spin_ms.after", spin1, "ms", "")
	add("trace.overhead_frac", fastestOp(ss, true)/fastestOp(ss, false)-1, "frac", fmt.Sprintf("fastest traced slice / fastest untraced - 1; %d traced ops, %d untraced, alternating slices", len(tracedMs), len(plainMs)))
	return nil
}

// exact marks the unit of a † count: it repeats exactly for a fixed seed, so
// a different value is a change of behaviour and neither direction is a
// gain, whatever "better" the schema makes BENCHMARK.json state.
const exact = ".exact"

// fastestOp is op_ms, as the end-to-end estimator defines it, over the
// traced or the untraced slices.
func fastestOp(ss []slice, traced bool) float64 {
	best := math.Inf(1)
	for _, s := range ss {
		if s.traced == traced {
			best = min(best, s.opMs())
		}
	}
	return best
}

type replay struct {
	e    *benchEnv
	add  func(name string, v float64, unit, note string)
	root int
	// keys present in the dataset, for the lookup probes
	sortedKeys []uint64
}

// timeIt runs f under a span of the named layer and returns its duration.
func (rp *replay) timeIt(layer, name string, f func()) time.Duration {
	sp := rp.e.tr.begin(rp.root, layer, name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	rp.e.tr.end(sp)
	return d
}

type tuples struct {
	keys []uint64
	vals []uint32
}

func (t tuples) clone() tuples {
	return tuples{append([]uint64(nil), t.keys...), append([]uint32(nil), t.vals...)}
}

// sortRange sorts t with the pipeline's LocalSort kernel; tmp is scratch of
// at least t's length.
func (t tuples) sortRange(lo, hi uint64, tmp tuples) {
	radix.SortPairs64Range(t.keys, t.vals, tmp.keys, tmp.vals, lo, hi)
}

// dsuOf runs LocalCC's loop over a sorted partition: star edges from the
// first read of every equal-k-mer run, re-verified as Algorithm 1 does.
func dsuOf(t tuples, reads int) (d *unionfind.DSU, edges uint64) {
	d = unionfind.New(reads)
	var retry []unionfind.Edge
	for i := 0; i < len(t.keys); {
		j := i + 1
		for j < len(t.keys) && t.keys[j] == t.keys[i] {
			edges++
			if d.Connect(t.vals[i], t.vals[j]) {
				retry = append(retry, unionfind.Edge{U: t.vals[i], V: t.vals[j]})
			}
			j++
		}
		i = j
	}
	for len(retry) > 0 {
		buf := retry[:0]
		for _, ed := range retry {
			if d.Connect(ed.U, ed.V) {
				buf = append(buf, ed)
			}
		}
		retry = buf
	}
	return d, edges
}

// batchLayers replays fastq, index, kmer, radix, unionfind, mpirt and
// extsort on the workload's dataset.
func (rp *replay) batchLayers() error {
	e, idx := rp.e, rp.e.idx
	const mb = 1e6

	// fastq: one in-place scan of the dataset bytes.
	bufs, err := readFiles(idx.Files)
	if err != nil {
		return err
	}
	var seqs [][]byte
	d := rp.timeIt("fastq", "ChunkScanner.Next", func() { seqs, err = scanSeqs(bufs) })
	if err != nil {
		return err
	}
	if int64(len(seqs)) != idx.Records {
		e.rep.fail("fastq replay scanned %d records, index has %d", len(seqs), idx.Records)
	}
	rp.add("fastq.scan_mb_per_s", float64(e.prep.DatasetBytes)/mb/d.Seconds(), "MB/s", "ChunkScanner over the dataset bytes")

	// index: IndexCreate as set-up runs it.
	var idxErr error
	d = rp.timeIt("index", "BuildParallel", func() { _, idxErr = metaprep.BuildIndexParallel(idx.Files, indexOptions(), 2) })
	if idxErr != nil {
		return idxErr
	}
	rp.add("index.build_mb_per_s", float64(e.prep.DatasetBytes)/mb/d.Seconds(), "MB/s", "BuildIndexParallel, 2 workers")

	// kmer: the three enumeration entry points the pipeline and the server use.
	keys := make([]kmer.Kmer64, idx.TotalKmers)
	clear(keys) // fault the pages in before the timer
	keys = keys[:0]
	ends := make([]int, len(seqs))
	d = rp.timeIt("kmer", "AppendCanonical64", func() {
		for i, s := range seqs {
			keys = kmer.AppendCanonical64(keys, s, kmerLen)
			ends[i] = len(keys)
		}
	})
	if uint64(len(keys)) != idx.TotalKmers {
		e.rep.fail("kmer replay enumerated %d k-mers, index has %d", len(keys), idx.TotalKmers)
	}
	rp.add("kmer.canon64_ns_per_kmer", float64(d.Nanoseconds())/float64(len(keys)), "ns", "AppendCanonical64 over every read")
	var acc kmer.Kmer64
	d = rp.timeIt("kmer", "ForEach64", func() {
		for _, s := range seqs {
			kmer.ForEach64(s, kmerLen, func(_ int, km kmer.Kmer64) { acc ^= km })
		}
	})
	rp.add("kmer.foreach64_ns_per_kmer", float64(d.Nanoseconds())/float64(len(keys)), "ns", "ForEach64 over every read")
	rng := rand.New(rand.NewSource(querySeed(e.o.seed)))
	strs := make([][]byte, min(len(keys), 1<<19))
	for i := range strs {
		strs[i] = []byte(kmer.String64(keys[rng.Intn(len(keys))], kmerLen))
	}
	d = rp.timeIt("kmer", "Encode64+Canonical64", func() {
		for _, s := range strs {
			km, _ := kmer.Encode64(s)
			acc ^= kmer.Canonical64(km, kmerLen)
		}
	})
	spinSink ^= uint64(acc)
	rp.add("kmer.encode64_ns_per_kmer", float64(d.Nanoseconds())/float64(len(strs)), "ns", fmt.Sprintf("%d k-mer strings", len(strs)))

	// The P=2 partition of the tuple space, as KmerGen-Comm delivers it:
	// read order within each task's key range.
	pt, err := index.NewPartition(idx.MerHist, 1, 2, 1)
	if err != nil {
		return err
	}
	shift := 2 * uint(kmerLen-idx.Opts.M)
	_, cut := pt.TaskRange(0, 0)
	_, top := pt.TaskRange(0, 1)
	bounds := [2][2]uint64{{0, uint64(cut)<<shift - 1}, {uint64(cut) << shift, uint64(top)<<shift - 1}}
	var part [2]tuples
	read := 0
	for i, k := range keys {
		for i >= ends[read] {
			read++
		}
		p := 0
		if uint64(k) >= bounds[1][0] {
			p = 1
		}
		part[p].keys = append(part[p].keys, uint64(k))
		part[p].vals = append(part[p].vals, uint32(read/2)) // mates share a read ID
	}
	keys = nil
	arrival := part[0].clone() // unsorted copy, for the spill runs below

	// mpirt: the tuple exchange. Each rank sends the half it "generated" of
	// every destination's range; the receiver copies out, as exchange() does.
	type msg struct{ t tuples }
	var in [2]tuples
	for p := range in {
		in[p] = part[p].clone() // same size, pages already faulted in
	}
	half := func(t tuples, r int) tuples {
		m := len(t.keys) / 2
		if r == 0 {
			return tuples{t.keys[:m], t.vals[:m]}
		}
		return tuples{t.keys[m:], t.vals[m:]}
	}
	var worldErr error
	d = rp.timeIt("mpirt", "AllToAll P=2", func() {
		worldErr = mpirt.NewWorld(2, nil).Run(func(t *mpirt.Task) error {
			t.AllToAll(1,
				func(dst int) (any, int) {
					h := half(part[dst], t.Rank())
					return msg{h}, 12 * len(h.keys)
				},
				func(src int, payload any) {
					m := payload.(msg).t
					off := 0
					if src == 1 {
						off = len(part[t.Rank()].keys) / 2
					}
					copy(in[t.Rank()].keys[off:], m.keys)
					copy(in[t.Rank()].vals[off:], m.vals)
				})
			return nil
		})
	})
	if worldErr != nil {
		return worldErr
	}
	rp.add("mpirt.alltoall_mb_per_s", float64(12*idx.TotalKmers)/mb/d.Seconds(), "MB/s", "P=2, every tuple of the dataset, 12 B each")

	// radix: LocalSort's kernel on task 0's received partition.
	n := len(arrival.keys)
	tmp := tuples{make([]uint64, max(n, len(in[1].keys))), make([]uint32, max(n, len(in[1].keys)))}
	for i := range tmp.keys {
		tmp.keys[i], tmp.vals[i] = 1, 1
	}
	d = rp.timeIt("radix", "SortPairs64Range", func() { in[0].sortRange(bounds[0][0], bounds[0][1], tmp) })
	rp.add("radix.sort64_ns_per_tuple", float64(d.Nanoseconds())/float64(len(in[0].keys)), "ns", fmt.Sprintf("task 0's partition, %d tuples", len(in[0].keys)))
	in[1].sortRange(bounds[1][0], bounds[1][1], tmp)
	rp.sortedKeys = in[0].keys

	// unionfind: LocalCC on task 0, then MergeCC's absorb and flatten.
	reads := int(idx.Reads)
	var d0 *unionfind.DSU
	var edges uint64
	d = rp.timeIt("unionfind", "Connect", func() { d0, edges = dsuOf(in[0], reads) })
	rp.add("unionfind.connect_ns_per_edge", float64(d.Nanoseconds())/float64(max(edges, 1)), "ns", fmt.Sprintf("%d edges of task 0's partition", edges))
	d1, _ := dsuOf(in[1], reads)
	p1 := append([]uint32(nil), d1.Flatten(1)...)
	d = rp.timeIt("unionfind", "Absorb", func() { d0.Absorb(p1, 1) })
	rp.add("unionfind.absorb_ns_per_read", float64(d.Nanoseconds())/float64(reads), "ns", "task 1's parent array into task 0's")
	var labels []uint32
	d = rp.timeIt("unionfind", "Flatten", func() { labels = d0.Flatten(1) })
	rp.add("unionfind.flatten_ns_per_read", float64(d.Nanoseconds())/float64(reads), "ns", "")
	comps := 0
	for i, l := range labels {
		if uint32(i) == l {
			comps++
		}
	}
	if want := e.prep.Oracle.Components; comps != want {
		e.rep.fail("replayed sort+CC found %d components, the oracle %d", comps, want)
	}

	// mpirt: the merge tree at P=2, fresh DSUs.
	m0, _ := dsuOf(in[0], reads)
	m1, _ := dsuOf(in[1], reads)
	d = rp.timeIt("mpirt", "TreeMerge P=2", func() {
		worldErr = mpirt.NewWorld(2, nil).Run(func(t *mpirt.Task) error {
			t.TreeMerge(2,
				func(int) (any, int) { return m1.Flatten(1), 4 * reads },
				func(_ int, payload any) { m0.Absorb(payload.([]uint32), 1) })
			return nil
		})
	})
	if worldErr != nil {
		return worldErr
	}
	rp.add("mpirt.treemerge_ms", ms(d), "ms", "P=2, dense 4R-byte parent array")

	// extsort: the spill shape of batch-bounded — 24 runs in arrival order,
	// each sorted, written, then merged by the loser tree.
	const nRuns = 24
	f, err := os.Create(filepath.Join(string(e.dir), "replay.runs"))
	if err != nil {
		return err
	}
	defer f.Close()
	for r := 0; r < nRuns; r++ {
		lo, hi := r*n/nRuns, (r+1)*n/nRuns
		tuples{arrival.keys[lo:hi], arrival.vals[lo:hi]}.sortRange(bounds[0][0], bounds[0][1], tmp)
	}
	const blockTuples = 4096
	w, err := extsort.NewWriter(f, false, false, blockTuples)
	if err != nil {
		return err
	}
	infos := make([]extsort.RunInfo, nRuns)
	var wErr error
	d = rp.timeIt("extsort", "Writer.WriteRun x24", func() {
		for r := 0; r < nRuns && wErr == nil; r++ {
			lo, hi := r*n/nRuns, (r+1)*n/nRuns
			infos[r], wErr = w.WriteRun(arrival.keys[lo:hi], nil, arrival.vals[lo:hi], []uint64{0, uint64(hi - lo)})
		}
		if wErr == nil {
			wErr = w.Close()
		}
	})
	if wErr != nil {
		return wErr
	}
	rp.add("extsort.write_mb_per_s", float64(w.BytesWritten())/mb/d.Seconds(), "MB/s", fmt.Sprintf("%d runs, %d tuples", nRuns, n))
	rp.add("extsort.spill_bytes_per_tuple", float64(w.BytesWritten())/float64(n), "B"+exact, "†")
	rs := make([]*extsort.SegReader, nRuns)
	for r := range rs {
		rs[r] = extsort.NewSegReader(f, infos[r].Segs[0], false, false, blockTuples)
	}
	mg, err := extsort.NewMerger(rs)
	if err != nil {
		return err
	}
	defer mg.Close()
	merged, ordered := 0, true
	var mErr error
	d = rp.timeIt("extsort", "Merger.Next", func() {
		for {
			_, lo, _, ok, err := mg.Next()
			if err != nil {
				mErr = err
				return
			}
			if !ok {
				return
			}
			if lo != in[0].keys[merged] {
				ordered = false
			}
			merged++
		}
	})
	if mErr != nil {
		return mErr
	}
	if merged != n || !ordered {
		e.rep.fail("extsort replay merged %d of %d tuples, key order equal to the in-RAM sort: %v", merged, n, ordered)
	}
	rp.add("extsort.merge_ns_per_tuple", float64(d.Nanoseconds())/float64(n), "ns", "loser tree over 24 runs")
	return nil
}

// storeLayers replays artifact and lookup on the artifact the set-up child
// wrote from this dataset.
func (rp *replay) storeLayers() error {
	e := rp.e
	const mb = 1e6
	ar, err := artifact.Open(e.dir.artifact())
	if err != nil {
		return err
	}
	defer ar.Close()
	var n uint64
	var sErr error
	d := rp.timeIt("artifact", "Reader.Kmers", func() {
		st, err := ar.Kmers()
		if err != nil {
			sErr = err
			return
		}
		defer st.Close()
		for {
			_, _, _, ok, err := st.Next()
			if err != nil {
				sErr = err
				return
			}
			if !ok {
				return
			}
			n++
		}
	})
	if sErr != nil {
		return sErr
	}
	if n != ar.Tuples() || n != e.idx.TotalKmers {
		e.rep.fail("artifact streamed %d tuples, header says %d, index %d", n, ar.Tuples(), e.idx.TotalKmers)
	}
	rp.add("artifact.stream_ns_per_tuple", float64(d.Nanoseconds())/float64(n), "ns", "Reader.Kmers, every tuple")
	d = rp.timeIt("artifact", "VerifyKmers", func() { sErr = ar.VerifyKmers() })
	if sErr != nil {
		return sErr
	}
	rp.add("artifact.verify_mb_per_s", float64(ar.Size())/mb/d.Seconds(), "MB/s", "")
	rp.add("artifact.bytes_per_tuple", float64(ar.Size())/float64(n), "B"+exact, "†")

	path := filepath.Join(string(e.dir), "replay.mplk")
	var bs lookup.BuildStats
	d = rp.timeIt("lookup", "Build", func() { bs, sErr = lookup.Build(ar, path, lookup.BuildOptions{}) })
	if sErr != nil {
		return sErr
	}
	rp.add("lookup.build_keys_per_s", float64(bs.Keys)/d.Seconds(), "1/s", fmt.Sprintf("%d keys", bs.Keys))
	rp.add("lookup.bytes_per_key", float64(bs.Bytes)/float64(bs.Keys), "B"+exact, "†")
	lk, err := lookup.Open(path)
	if err != nil {
		return err
	}
	defer lk.Close()

	// Probe keys: present ones from the sorted partition, absent ones random.
	rng := rand.New(rand.NewSource(querySeed(e.o.seed) + 1))
	probes := 1 << 18
	if e.o.quick {
		probes >>= 4
	}
	hits, misses := make([]uint64, probes), make([]uint64, probes)
	for i := range hits {
		hits[i] = rp.sortedKeys[rng.Intn(len(rp.sortedKeys))]
		misses[i] = rng.Uint64() & kmer.Mask64(kmerLen)
	}
	found := 0
	d = rp.timeIt("lookup", "Get (hit)", func() {
		for _, k := range hits {
			if _, _, ok := lk.Get(0, k); ok {
				found++
			}
		}
	})
	if found != probes {
		e.rep.fail("lookup.Get found %d of %d present keys", found, probes)
	}
	rp.add("lookup.get_hit_ns", float64(d.Nanoseconds())/float64(probes), "ns", fmt.Sprintf("%d uniform probes", probes))
	found = 0
	d = rp.timeIt("lookup", "Get (miss)", func() {
		for _, k := range misses {
			if _, _, ok := lk.Get(0, k); ok {
				found++
			}
		}
	})
	if found > probes/100 {
		e.rep.fail("lookup.Get found %d of %d random keys", found, probes)
	}
	rp.add("lookup.get_miss_ns", float64(d.Nanoseconds())/float64(probes), "ns", "")

	// Batches as the server issues them: 256 keys per k-mer request, 74 per read.
	mixed := make([]uint64, probes)
	for i := range mixed {
		mixed[i] = hits[i]
		if rng.Float64() < absentFrac {
			mixed[i] = misses[i]
		}
	}
	bt := lookup.NewBatcher(0)
	defer bt.Close()
	for _, size := range []int{256, 74} {
		out := make([]lookup.Result, size)
		d = rp.timeIt("lookup", fmt.Sprintf("Batcher.Run x%d", size), func() {
			for i := 0; i+size <= len(mixed); i += size {
				bt.Run(lk, nil, mixed[i:i+size], out)
			}
		})
		rp.add(fmt.Sprintf("lookup.batch%d_ns_per_probe", size), float64(d.Nanoseconds())/float64(len(mixed)/size*size), "ns", "10% absent")
	}
	return nil
}

// serverLayer splits the request latency into QueryTier.Execute and the
// HTTP+JSON around it. Query workloads use their own timed requests; batch
// workloads stand the tier up on their dataset's artifact for the purpose.
func (rp *replay) serverLayer(ss []slice, q *queryRun, opMs float64) error {
	e := rp.e
	var lats []float64
	if q != nil {
		lats = opLatencies(ss, nil)
	} else {
		var err error
		if q, err = startQuery(e); err != nil {
			return err
		}
		defer q.close()
		warm := min(len(q.qs.Bodies), 200)
		for i := 0; i < warm+min(len(q.qs.Bodies), 1000); i++ {
			lat, _, err := q.request(i >= warm)
			if err != nil {
				return err
			}
			if i >= warm {
				lats = append(lats, ms(lat))
			}
		}
		opMs = median(lats)
	}
	var exec []float64
	for _, body := range q.qs.Bodies[:min(len(q.qs.Bodies), 512)] {
		var req server.QueryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		var xErr error
		d := rp.timeIt("server", "QueryTier.Execute", func() { _, _, xErr = q.tier.Execute(req) })
		if xErr != nil {
			return xErr
		}
		exec = append(exec, ms(d))
	}
	execMs := median(exec)
	rp.add("server.execute_ms", execMs, "ms", fmt.Sprintf("QueryTier.Execute, no HTTP, median of %d", len(exec)))
	rp.add("server.http_json_ms", opMs-execMs, "ms", fmt.Sprintf("request median %.4f ms minus execute", opMs))
	rp.add("server.http_p99_ms", quantile(lats, 0.99), "ms", fmt.Sprintf("of %d requests; reported, not gated", len(lats)))
	var kmers, miss int
	for i := range q.qs.Bodies {
		kmers += q.qs.NKmers[i]
		miss += q.qs.Misses[i]
	}
	rp.add("server.miss_frac", float64(miss)/float64(kmers), "frac"+exact, "† over the body pool")
	return nil
}
