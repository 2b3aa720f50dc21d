package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"metaprep"
	"metaprep/internal/stats"
)

// setupRounds is how many times an untraced run sets up from an empty
// scratch directory; setup_s is the fastest round.
const setupRounds = 3

// benchEnv is what set-up hands to the timed section and the layer replay.
type benchEnv struct {
	w    workload
	o    options
	dir  runDir
	idx  *metaprep.Index
	prep *prepReport
	tr   *tracer
	root int // id of the run's root span
	rep  *report
}

// prepared is a workload after one set-up round: ready for its first timed
// slice.
type prepared struct {
	one   func(i int, traced bool) (slice, error)
	close func()
	facts []string
	info  []metric
	query *queryRun // query workloads: the live tier, for the layer replay
}

// slice is one measured unit of the timed section: one Partition call, or
// one second of closed-loop requests.
type slice struct {
	busy   time.Duration   // time inside ops
	cpu    time.Duration   // getrusage user+sys delta over the slice
	kmers  uint64          // k-mers processed / answered
	ops    []time.Duration // latency of every op in the slice
	traced bool
	run    *runSummary // batch only
	peak   float64     // MiB, VmHWM over the slice alone
}

// opMs is the slice's op latency: the median over its ops (a batch slice
// has one).
func (s slice) opMs() float64 { return 1e3 * median(stats.Durations(s.ops)) }

// rate is the slice's k-mers per busy second. With many ops in a slice the
// busy time is taken as ops × median latency, so that one stalled request
// (this host stalls for hundreds of ms now and then) does not decide a
// slice of a thousand.
func (s slice) rate() float64 {
	busy := s.busy.Seconds()
	if len(s.ops) > 1 {
		busy = float64(len(s.ops)) * s.opMs() / 1e3
	}
	return float64(s.kmers) / busy
}

func (s slice) cpuNsPerKmer() float64 { return float64(s.cpu.Nanoseconds()) / float64(s.kmers) }

// timedSection runs slices until the section has lasted budget, so it
// overruns by at most one slice. The section counts everything between the
// first and the last slice, including the untimed cleanup and verification
// between them. Traced runs record spans on every other slice, so one
// process yields both sides of trace.overhead_frac.
func timedSection(e *benchEnv, budget time.Duration, one func(i int, traced bool) (slice, error)) ([]slice, error) {
	n := 3 // at least
	if e.o.quick {
		n, budget = 2, 0
	}
	var out []slice
	start := time.Now()
	for i := 0; i < n || time.Since(start) < budget; i++ {
		resetErr := resetPeakRSS()
		s, err := one(i, e.tr != nil && i%2 == 1)
		if err != nil {
			return nil, err
		}
		// Before verification of the next slice or the replay allocate
		// anything more.
		if s.peak, err = peakRSSMiB(); err != nil {
			return nil, err
		}
		if resetErr != nil && i == 0 {
			e.rep.facts = append(e.rep.facts, fmt.Sprintf("VmHWM cannot be reset (%v): every slice reads the process-wide peak", resetErr))
		}
		out = append(out, s)
	}
	return out, nil
}

// setUp is one complete set-up round, from an empty scratch directory to a
// workload ready for its first timed slice. The child generates the dataset
// and the index and runs the serial oracle (batch) or writes the served
// artifact and the query set (query); a traced run needs all of it for the
// layer replay. The parent then loads the index, stands the tier up (query)
// and warms up.
func setUp(e *benchEnv) (*prepared, error) {
	if err := resetDirs(string(e.dir)); err != nil {
		return nil, err
	}
	sp := e.tr.begin(e.root, "benchmark", "set-up child")
	prep, err := spawnPrep(e.w, e.o, e.dir)
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	e.prep = prep
	if e.idx, err = metaprep.LoadIndex(e.dir.index()); err != nil {
		return nil, err
	}
	if e.w.query {
		return prepareQuery(e)
	}
	return prepareBatch(e)
}

func runWorkload(w workload, o options) (*report, error) {
	traced := o.traced()
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.dir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &benchEnv{w: w, o: o, dir: runDir(tmp), rep: &report{workload: w, seed: o.seed, traced: traced}}
	rounds := setupRounds
	if o.quick {
		rounds = 2 // the repeat path, at the tests' budget
	}
	if traced {
		// A traced run reports no setup_s.
		rounds = 1
		e.tr = newTracer(w.name)
		e.root = e.tr.begin(0, "benchmark", "run")
	}

	// Set-up, several times over; the last round's products are the ones
	// the timed section uses. Tearing a round down is not part of the next.
	var p *prepared
	var setups []float64
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		if r == 0 {
			t0 = processStart
		}
		if p, err = setUp(e); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r+1 < rounds {
			p.close()
		}
	}
	defer p.close()
	e.rep.facts = append(e.rep.facts,
		fmt.Sprintf("dataset %s: %d reads, %d bp, %d k-mer tuples (k=%d), %.1f MiB FASTQ; L2 4 MiB on the reference host",
			datasetName(w), e.idx.Records, e.idx.TotalBases, e.idx.TotalKmers, kmerLen, float64(e.prep.DatasetBytes)/(1<<20)),
		"shape: "+w.shape(e.idx))
	e.rep.facts = append(e.rep.facts, p.facts...)

	spin0 := spinMs(o.quick)
	var triad0 float64
	if traced {
		triad0 = triadGBps(o.quick)
	}

	// A traced run spends 40 % of -seconds on slices; the layer replay
	// takes the rest.
	budget := time.Duration(o.seconds * float64(time.Second))
	if traced {
		budget = budget * 2 / 5
	}
	t0 := time.Now()
	ss, err := timedSection(e, budget, p.one)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	spin1 := spinMs(o.quick)

	rates, lats, cpus := perSlice(ss, slice.rate), perSlice(ss, slice.opMs), perSlice(ss, slice.cpuNsPerKmer)
	peaks := perSlice(ss, func(s slice) float64 { return s.peak })
	e.rep.facts = append(e.rep.facts,
		fmt.Sprintf("timed section: %d slices in %.1f s, %d ops", len(ss), wall.Seconds(), countOps(ss)),
		"set-up rounds, s: "+joinFloats(setups, "%.2f"),
		"k-mers per ms, slice by slice: "+joinFloats(perSlice(ss, func(s slice) float64 { return s.rate() / 1e3 }), "%.0f"),
		"peak RSS in MiB, slice by slice: "+joinFloats(peaks, "%.0f"))
	note := fmt.Sprintf("fastest of %d slices", len(ss))
	e.rep.endToEnd = []metric{
		{"setup_s", slices.Min(setups), "s", fmt.Sprintf("empty scratch directory to first timed slice, fastest of %d rounds", len(setups))},
		{"kmers_per_s", slices.Max(rates), "1/s", note},
		{"op_ms", slices.Min(lats), "ms", fmt.Sprintf("%s, %d ops", note, countOps(ss))},
		{"cpu_ns_per_kmer", slices.Min(cpus), "ns", note + ", user+sys"},
		{"peak_rss_mib", median(peaks), "MiB", "VmHWM over one slice, median slice"},
	}
	// For the reader: what the whole section looked like, noise included.
	all := opLatencies(ss, nil)
	e.rep.info = append(e.rep.info,
		metric{"op_ms.median", median(all), "ms", fmt.Sprintf("over all %d ops", len(all))},
		metric{"op_ms.p90", quantile(all, 0.9), "ms", ""},
		metric{"kmers_per_s.median_slice", median(rates), "1/s", ""},
		metric{"cpu_ns_per_kmer.median_slice", median(cpus), "ns", ""})
	if !traced {
		e.rep.info = append(e.rep.info,
			metric{"host.spin_ms.before", spin0, "ms", "fixed integer loop"},
			metric{"host.spin_ms.after", spin1, "ms", ""})
	}
	e.rep.info = append(e.rep.info, p.info...)
	e.rep.info = append(e.rep.info,
		metric{"setup.child_gen_s", e.prep.GenS, "s", "last round: simulate.Generate"},
		metric{"setup.child_index_s", e.prep.IndexS, "s", "BuildIndexParallel"},
	)
	if r := e.prep.Oracle; r != nil {
		e.rep.info = append(e.rep.info, metric{"setup.child_oracle_s", r.WallS, "s", "serial Partition"})
	}
	if r := e.prep.Artifact; r != nil {
		e.rep.info = append(e.rep.info,
			metric{"setup.child_artifact_s", r.WallS, "s", "Tasks=2 Partition with ArtifactOut"},
			metric{"setup.child_queryset_s", e.prep.QuerySetS, "s", "reference load, bodies, expected answers"})
	}

	if traced {
		triad1 := triadGBps(o.quick)
		if err := layerMetrics(e, ss, p.query, spin0, spin1, triad0, triad1); err != nil {
			return nil, err
		}
		e.tr.end(e.root)
		path := o.trace
		if path == "1" {
			path = filepath.Join(o.dir, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
		}
		if err := e.tr.write(path, o.seed); err != nil {
			return nil, err
		}
		e.rep.facts = append(e.rep.facts, fmt.Sprintf("spans: %d written to %s", len(e.tr.spans), path))
	}
	return e.rep, nil
}

func datasetName(w workload) string {
	if w.wide {
		return "D-wide"
	}
	return "D-cov"
}

func perSlice(ss []slice, f func(slice) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func joinFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// opLatencies lists, in ms, every op of the slices keep accepts (nil: all).
func opLatencies(ss []slice, keep func(slice) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep != nil && !keep(s) {
			continue
		}
		for _, d := range s.ops {
			out = append(out, ms(d))
		}
	}
	return out
}

func countOps(ss []slice) int {
	n := 0
	for _, s := range ss {
		n += len(s.ops)
	}
	return n
}
