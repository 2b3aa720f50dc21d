package main

import (
	"fmt"
	"strings"

	"metaprep"
)

const (
	kmerLen = 27
	// fullScale gives 125 000 pairs = 250 000 reads of 100 bp; quickScale
	// about 5 000 reads.
	fullScale  = 0.5
	quickScale = 0.01
)

type workload struct {
	name string
	why  string
	// wide selects D-wide (many low-coverage genomes, ~4× the distinct
	// k-mers) over D-cov (the IS preset as it is).
	wide  bool
	query bool
	// batch shape
	passes  int
	output  bool // write partitioned FASTQ (OutDir)
	bounded bool // SpillBudgetBytes = 1/8 of a task's per-pass partition
	// query shape
	reads bool // bodies of 64 raw reads instead of 256 k-mer strings
}

var workloads = []workload{
	{name: "batch-inram", passes: 1, output: true,
		why: "in-RAM sort/CC/merge and CC-I/O do all the work and extsort none, so an in-RAM kernel gain shows here"},
	{name: "batch-bounded", passes: 2, bounded: true,
		why: "same layers the other way: spill runs, loser-tree merge, second FASTQ scan; peak RSS is the headline"},
	{name: "query-kmers", wide: true, query: true,
		why: "point probes over a lookup 40x L2 with 10% misses; per-k-mer cost is JSON/HTTP + Encode64, not the probe"},
	{name: "query-reads", wide: true, query: true, reads: true,
		why: "rolling k-mers, one 74-key batch per read, majority vote; JSON is amortised so probe/dispatch gains show"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// splitmix64 derives independent seeds from the one the user passes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func dataSeed(seed int64) int64  { return int64(splitmix64(uint64(seed)) >> 1) }
func querySeed(seed int64) int64 { return int64(splitmix64(uint64(seed)+1<<32) >> 1) }

// datasetSpec is the workload's synthetic community. D-wide keeps the read
// count and spreads it over 4× the species with 6× longer genomes, which
// drops coverage from ~7× to ~1.7× and quadruples the distinct k-mers.
func datasetSpec(w workload, seed int64, quick bool) (metaprep.CommunitySpec, error) {
	scale := fullScale
	if quick {
		scale = quickScale
	}
	spec, err := metaprep.Preset("IS", scale)
	if err != nil {
		return spec, err
	}
	spec.Name = "Dcov"
	if w.wide {
		spec.Name = "Dwide"
		spec.Species *= 4
		spec.RareSpecies *= 4
		spec.SharedRepeats *= 4
		spec.HomologSegments *= 4
		spec.GenomeLen *= 6
		spec.RareGenomeLen *= 6
	}
	spec.Seed = dataSeed(seed)
	return spec, nil
}

func indexOptions() metaprep.IndexOptions {
	opts := metaprep.DefaultIndexOptions()
	opts.K = kmerLen
	opts.Paired = true
	opts.ChunkSize = 1 << 20
	return opts
}

// batchConfig is the shape a batch workload times. spillDir and outDir live
// in the run's scratch directory.
func batchConfig(w workload, idx *metaprep.Index, outDir, spillDir string) metaprep.Config {
	cfg := metaprep.DefaultConfig(idx)
	cfg.Tasks = 2
	cfg.Threads = 1
	cfg.Passes = w.passes
	cfg.DriftCal = "off"
	if w.output {
		cfg.OutDir = outDir
	}
	if w.bounded {
		perTaskPass := int64(idx.TotalKmers) * 12 / int64(cfg.Tasks*cfg.Passes)
		cfg.SpillBudgetBytes = max(perTaskPass/8, metaprep.MinSpillBudgetBytes)
		cfg.SpillDir = spillDir
	}
	return cfg
}

// shape describes what the workload times, from the Config it runs.
func (w workload) shape(idx *metaprep.Index) string {
	if w.query {
		body := fmt.Sprintf("%d k-mer strings, %.0f%% absent", kmersPerBody, 100*absentFrac)
		if w.reads {
			body = fmt.Sprintf("%d raw reads, %.0f%% random sequence", readsPerBody, 100*absentFrac)
		}
		return "closed loop, 1 client, 1 keep-alive connection over loopback HTTP; bodies of " + body
	}
	cfg := batchConfig(w, idx, "set", "set")
	return fmt.Sprintf("Tasks=%d Threads=%d Passes=%d DriftCal=%s OutDir=%q SpillBudgetBytes=%d (per task)",
		cfg.Tasks, cfg.Threads, cfg.Passes, cfg.DriftCal, cfg.OutDir, cfg.SpillBudgetBytes)
}
