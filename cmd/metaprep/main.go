// Command metaprep is the command-line front end of the METAPREP pipeline:
// it builds index files for a FASTQ dataset and partitions the reads into
// read-graph connected components.
//
// Typical use:
//
//	metaprep index  -k 27 -m 8 -paired -out ds.idx reads_00.fastq reads_01.fastq
//	metaprep run    -index ds.idx -tasks 4 -threads 8 -passes 2 \
//	                -kf-max 30 -outdir parts/
//	metaprep stats  -index ds.idx
//
// The run subcommand prints the per-step time breakdown (the paper's
// Fig. 5 bars), the component summary, and the output file lists.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"metaprep"
	"metaprep/internal/obsv"
	"metaprep/internal/stats"
	"metaprep/internal/traj"
)

// parseBytes reads a byte count with an optional K/M/G/T suffix (powers of
// 1024, case-insensitive, trailing "B"/"iB" allowed): "256M", "2GiB", "65536".
func parseBytes(s string) (int64, error) {
	t := strings.ToUpper(strings.TrimSpace(s))
	t = strings.TrimSuffix(t, "IB")
	t = strings.TrimSuffix(t, "B")
	shift := 0
	switch {
	case strings.HasSuffix(t, "K"):
		shift, t = 10, t[:len(t)-1]
	case strings.HasSuffix(t, "M"):
		shift, t = 20, t[:len(t)-1]
	case strings.HasSuffix(t, "G"):
		shift, t = 30, t[:len(t)-1]
	case strings.HasSuffix(t, "T"):
		shift, t = 40, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is not a byte size", s)
	}
	if n < 0 || n > (1<<62)>>shift {
		return 0, fmt.Errorf("%q out of range", s)
	}
	return n << shift, nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "index":
		err = cmdIndex(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "artifact":
		err = cmdArtifact(os.Args[2:])
	case "lookup":
		err = cmdLookup(os.Args[2:])
	case "checktrace":
		err = cmdCheckTrace(os.Args[2:])
	case "drift":
		err = cmdDrift(os.Args[2:])
	case "normalize":
		err = cmdNormalize(os.Args[2:])
	case "interleave":
		err = cmdInterleave(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "metaprep:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  metaprep index      [-k 27] [-m 8] [-chunk 4194304] [-paired] [-workers 1] -out FILE fastq...
  metaprep run        -index FILE [-tasks 1] [-threads 1] [-passes 1]
                      [-kf-min 0] [-kf-max 0] [-split N]
                      [-outdir DIR] [-edison-net] [-merge-output]
                      [-prefetch N]
                      [-spill-budget BYTES|auto] [-spill-dir DIR]
                      [-artifact-out FILE] [-artifact-in FILE] [-delta]
                      [-trace FILE] [-metrics FILE] [-counters FILE|-]
                      [-drift-cal edison|ganga|off] [-trajectory FILE]
                      [-cpuprofile FILE] [-memprofile FILE] [-pprof ADDR]
  metaprep stats      -index FILE
  metaprep artifact   info [-verify] FILE
  metaprep artifact   union|intersect|diff -out FILE artifact...
  metaprep lookup     build -out FILE [-shards N] artifact.mpa
  metaprep lookup     query -lookup FILE [-siblings] kmer|sequence...
  metaprep checktrace -trace FILE [-metrics FILE] [-tol 0.01]
  metaprep drift      [-trajectory results/trajectory.jsonl] [-last N] [-warn 2.0]
  metaprep normalize  [-k 20] [-target 20] [-paired] -out FILE fastq...
  metaprep interleave -out FILE mate1.fastq mate2.fastq`)
	os.Exit(2)
}

func cmdIndex(args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	k := fs.Int("k", 27, "k-mer length (1..63)")
	m := fs.Int("m", 8, "m-mer histogram prefix length")
	chunk := fs.Int64("chunk", 4<<20, "target chunk size in bytes")
	paired := fs.Bool("paired", false, "input is interleaved paired-end")
	matePairs := fs.Bool("mate-pairs", false, "inputs are separate mate files, in consecutive pairs")
	workers := fs.Int("workers", 1, "histogram workers (1 = the paper's sequential IndexCreate)")
	out := fs.String("out", "", "output index path (required)")
	fs.Parse(args)
	if *out == "" || fs.NArg() == 0 {
		return fmt.Errorf("index: need -out and at least one FASTQ file")
	}
	opts := metaprep.IndexOptions{K: *k, M: *m, ChunkSize: *chunk, Paired: *paired, MatePairs: *matePairs}
	idx, err := metaprep.BuildIndexParallel(fs.Args(), opts, *workers)
	if err != nil {
		return err
	}
	if err := idx.Save(*out); err != nil {
		return err
	}
	fmt.Printf("indexed %d records (%d reads, %d bases, %d k-mers) into %d chunks -> %s\n",
		idx.Records, idx.Reads, idx.TotalBases, idx.TotalKmers, len(idx.Chunks), *out)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	idxPath := fs.String("index", "", "index file from 'metaprep index' (required)")
	tasks := fs.Int("tasks", 1, "simulated MPI tasks (P)")
	threads := fs.Int("threads", 1, "threads per task (T)")
	passes := fs.Int("passes", 1, "I/O passes (S)")
	kfMin := fs.Uint("kf-min", 0, "k-mer frequency filter lower bound (0 = none)")
	kfMax := fs.Uint("kf-max", 0, "k-mer frequency filter upper bound (0 = none)")
	outdir := fs.String("outdir", "", "write partitioned FASTQ here (empty = labels only)")
	edisonNet := fs.Bool("edison-net", false, "charge Edison-like network costs to communication steps")
	mergeOut := fs.Bool("merge-output", false, "also concatenate per-thread outputs into lc.fastq/other.fastq")
	split := fs.Int("split", 0, "write the N largest components to separate file sets (0 = largest vs rest)")
	prefetch := fs.Int("prefetch", 0, "per-thread chunk read-ahead depth (0 = default: 1, or serial reads on a single-CPU host)")
	spillBudget := fs.String("spill-budget", "", "per-rank tuple memory budget, e.g. 256M or 2G, or 'auto' to probe the cgroup/host memory limit; when the exchange would exceed it the tuples spill into bin buckets on disk that LocalSort loads and sorts one at a time (empty = all in RAM)")
	spillDir := fs.String("spill-dir", "", "scratch root: the run keeps its spill files and artifact parts in one directory beneath it, removed when the run ends (empty = the OS temp dir)")
	artifactOut := fs.String("artifact-out", "", "persist the partitioning (sorted k-mer runs, labels, histogram, provenance) as a .mpa artifact here")
	artifactIn := fs.String("artifact-in", "", "reload the partitioning from a .mpa artifact instead of recomputing (must match this index and filter)")
	delta := fs.Bool("delta", false, "treat -index as a delta read set and merge it incrementally into the -artifact-in base")
	driftCal := fs.String("drift-cal", "", "model calibration for the drift report: edison (default), ganga, or off")
	trajectory := fs.String("trajectory", "", "append this run's perf record (shape, wall, drift) to a JSONL trajectory (see 'metaprep drift')")
	labelsPath := fs.String("labels", "", "also save the component label array here")
	tracePath := fs.String("trace", "", "write a Perfetto-loadable Chrome trace of the run here")
	metricsPath := fs.String("metrics", "", "write a JSON metrics snapshot (steps, per-task reports, counters) here")
	countersPath := fs.String("counters", "", "write the counter snapshot as CSV here ('-' prints a table)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run here")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile after the run here")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address during the run (e.g. localhost:6060)")
	fs.Parse(args)
	if *idxPath == "" {
		return fmt.Errorf("run: -index is required")
	}
	idx, err := metaprep.LoadIndex(*idxPath)
	if err != nil {
		return err
	}
	if err := idx.Verify(); err != nil {
		return err
	}
	cfg := metaprep.DefaultConfig(idx)
	cfg.Tasks = *tasks
	cfg.Threads = *threads
	cfg.Passes = *passes
	cfg.Filter = metaprep.Filter{Min: uint32(*kfMin), Max: uint32(*kfMax)}
	cfg.OutDir = *outdir
	cfg.SplitComponents = *split
	cfg.PrefetchChunks = *prefetch
	switch {
	case *spillBudget == "auto":
		b := metaprep.AutoSpillBudget(*tasks)
		if b == 0 {
			fmt.Fprintln(os.Stderr, "metaprep: -spill-budget auto: no memory limit discoverable, staying in RAM")
		} else {
			fmt.Printf("spill budget: %dMB/task (auto)\n", b>>20)
		}
		cfg.SpillBudgetBytes = b
	case *spillBudget != "":
		b, err := parseBytes(*spillBudget)
		if err != nil {
			return fmt.Errorf("run: -spill-budget: %w", err)
		}
		cfg.SpillBudgetBytes = b
	}
	cfg.SpillDir = *spillDir
	cfg.ArtifactOut = *artifactOut
	cfg.ArtifactIn = *artifactIn
	cfg.ArtifactDelta = *delta
	cfg.DriftCal = *driftCal
	if *edisonNet {
		cfg.Network = metaprep.EdisonNetwork()
	}
	// Fail fast with the typed validation message (field + reason) before
	// loading data or starting profiling.
	if err := metaprep.ValidateConfig(cfg); err != nil {
		return err
	}
	var obs *metaprep.Collector
	if *tracePath != "" || *metricsPath != "" || *countersPath != "" {
		obs = metaprep.NewCollector()
		cfg.Obs = obs
	}
	finish, err := startProfiling(*cpuprofile, *pprofAddr)
	if err != nil {
		return err
	}
	res, err := metaprep.Partition(cfg)
	if perr := finish(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	if *memprofile != "" {
		if err := obsv.WriteHeapProfile(*memprofile); err != nil {
			return err
		}
	}

	t := stats.NewTable("Step", "Time")
	res.Steps.Each(func(name string, d time.Duration) { t.AddRow(name, d) })
	t.AddRow("Total (max over tasks)", res.Steps.Total())
	t.AddRow("Wall", res.Wall)
	fmt.Print(t.String())
	fmt.Printf("reads=%d tuples=%d edges=%d components=%d largest=%d (%.1f%%) mem/task=%.1fMB\n",
		res.Reads, res.Tuples, res.Edges, res.Components, res.LargestSize,
		100*res.LargestFraction(), float64(res.MemoryPerTask)/float64(1<<20))
	if obs != nil {
		// The §3.7 plan above is per task and exact; the heap is the
		// process's, sampled at step boundaries.
		heap := map[string]uint64{}
		for _, c := range obs.Counters() {
			if c.Rank == obsv.RankGlobal {
				heap[c.Name] = c.Value
			}
		}
		fmt.Printf("heap (process-wide): allocated=%.1fMB live-peak=%.1fMB vs planned %d×%.1fMB\n",
			float64(heap["mem/alloc_bytes"])/float64(1<<20), float64(heap["mem/heap_live_peak_bytes"])/float64(1<<20),
			cfg.Tasks, float64(res.MemoryPerTask)/float64(1<<20))
	}
	if res.Drift != nil {
		fmt.Println(res.Drift)
	}
	if *trajectory != "" {
		rec := traj.FromResult(cfg, res)
		rec.Time = time.Now()
		rec.Dataset = filepath.Base(*idxPath)
		if err := traj.Append(*trajectory, rec); err != nil {
			return err
		}
		fmt.Printf("trajectory: %s\n", *trajectory)
	}
	if obs != nil {
		if *tracePath != "" {
			if err := obs.SaveTrace(*tracePath); err != nil {
				return err
			}
			fmt.Printf("trace: %s (load in ui.perfetto.dev)\n", *tracePath)
		}
		if *metricsPath != "" {
			if err := writeMetrics(*metricsPath, res, obs); err != nil {
				return err
			}
			fmt.Printf("metrics: %s\n", *metricsPath)
		}
		if *countersPath != "" {
			if err := writeCounters(*countersPath, obs); err != nil {
				return err
			}
		}
	}
	if *artifactOut != "" {
		if fi, err := os.Stat(*artifactOut); err == nil {
			fmt.Printf("artifact: %s (%.1fMB)\n", *artifactOut, float64(fi.Size())/float64(1<<20))
		}
	}
	if *labelsPath != "" {
		if err := metaprep.SaveLabels(*labelsPath, res.Labels); err != nil {
			return err
		}
		fmt.Printf("labels: %s\n", *labelsPath)
	}
	if *outdir != "" {
		fmt.Printf("output: %d largest-component files, %d remainder files under %s\n",
			len(res.LCFiles), len(res.OtherFiles), *outdir)
		if *mergeOut {
			lc := *outdir + "/lc.fastq"
			other := *outdir + "/other.fastq"
			if err := metaprep.MergeOutput(res, lc, other); err != nil {
				return err
			}
			fmt.Printf("merged: %s, %s\n", lc, other)
		}
	}
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	idxPath := fs.String("index", "", "index file (required)")
	fs.Parse(args)
	if *idxPath == "" {
		return fmt.Errorf("stats: -index is required")
	}
	idx, err := metaprep.LoadIndex(*idxPath)
	if err != nil {
		return err
	}
	fmt.Printf("files: %v\n", idx.Files)
	fmt.Printf("k=%d m=%d paired=%v chunkSize=%d\n",
		idx.Opts.K, idx.Opts.M, idx.Opts.Paired, idx.Opts.ChunkSize)
	fmt.Printf("records=%d reads=%d bases=%d kmers=%d chunks=%d indexMem=%dB\n",
		idx.Records, idx.Reads, idx.TotalBases, idx.TotalKmers, len(idx.Chunks), idx.MemoryBytes())
	w := metaprep.WorkloadFromIndex(idx)
	for _, c := range []metaprep.ClusterSpec{{P: 1, T: 1, S: 1}, {P: 1, T: 8, S: 1}, {P: 4, T: 8, S: 2}} {
		pred := metaprep.Predict(metaprep.EdisonCalibration(), w, c)
		fmt.Printf("model P=%d T=%d S=%d: total %.2fs, mem/task %.1fMB\n",
			c.P, c.T, c.S, pred.Total().Seconds(),
			float64(metaprep.PredictMemory(w, c))/float64(1<<20))
	}
	return nil
}

func cmdNormalize(args []string) error {
	fs := flag.NewFlagSet("normalize", flag.ExitOnError)
	k := fs.Int("k", 20, "k-mer length")
	target := fs.Int("target", 20, "coverage target C")
	paired := fs.Bool("paired", false, "keep interleaved pairs together")
	out := fs.String("out", "", "output FASTQ path (required)")
	fs.Parse(args)
	if *out == "" || fs.NArg() == 0 {
		return fmt.Errorf("normalize: need -out and at least one FASTQ file")
	}
	opts := metaprep.DefaultNormalizeOptions()
	opts.K = *k
	opts.Target = *target
	stats, err := metaprep.Normalize(fs.Args(), *out, *paired, opts)
	if err != nil {
		return err
	}
	fmt.Printf("kept %d records (%d bases), dropped %d -> %s\n",
		stats.Kept, stats.KeptBases, stats.Dropped, *out)
	return nil
}

func cmdInterleave(args []string) error {
	fs := flag.NewFlagSet("interleave", flag.ExitOnError)
	out := fs.String("out", "", "output FASTQ path (required)")
	fs.Parse(args)
	if *out == "" || fs.NArg() != 2 {
		return fmt.Errorf("interleave: need -out and exactly two mate files")
	}
	m1, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer m1.Close()
	m2, err := os.Open(fs.Arg(1))
	if err != nil {
		return err
	}
	defer m2.Close()
	o, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer o.Close()
	pairs, err := metaprep.Interleave(m1, m2, o)
	if err != nil {
		return err
	}
	fmt.Printf("interleaved %d pairs -> %s\n", pairs, *out)
	return nil
}
