package core

import (
	"context"
	"os"
	"time"

	"metaprep/internal/mpirt"
)

// count.go runs the pipeline as a distributed k-mer counter — the reuse the
// paper's abstract promises ("efficient implementations of several
// computational subroutines (e.g., k-mer enumeration and counting …) that
// occur in other genomic data analysis problems"). The counter is the pass
// body verbatim — KmerGen, KmerGen-Comm into the plan's sink, LocalSort by
// its seal — with each sorted equal-key group compacted into a (k-mer,
// count) pair instead of union–find edges, in RAM or spilling alike.
//
// Because passes and tasks own contiguous, ascending key ranges,
// concatenating the per-(pass, task) outputs in order yields a globally
// sorted count table without any merge step.

// CountResult is the distributed counter's output: parallel slices sorted
// by k-mer. KmersHi is nil for k ≤ 31 and carries the high key words for
// the 128-bit path otherwise.
type CountResult struct {
	KmersLo []uint64
	KmersHi []uint64
	Counts  []uint32
	// Steps aggregates per-step times exactly like Result.Steps.
	Steps StepTimes
	// Tuples is the number of k-mer instances counted.
	Tuples uint64
	// Wall is the measured end-to-end time.
	Wall time.Duration
}

// Len returns the number of distinct k-mers.
func (c *CountResult) Len() int { return len(c.KmersLo) }

// Get returns the count of a 64-bit canonical k-mer (0 if absent); only
// valid for k ≤ 31 runs.
func (c *CountResult) Get(km uint64) uint32 {
	lo, hi := 0, len(c.KmersLo)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.KmersLo[mid] < km {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.KmersLo) && c.KmersLo[lo] == km {
		return c.Counts[lo]
	}
	return 0
}

// taskCounts accumulates one task's compacted counts per pass.
type taskCounts struct {
	lo, hi []uint64
	counts []uint32
}

// RunCount executes the counting pipeline. The Filter, CCOpt, OutDir and
// SplitComponents fields of cfg are ignored (every k-mer is counted);
// everything else (tasks, threads, passes, SpillBudgetBytes,
// network model) applies as in Run.
func RunCount(cfg Config) (*CountResult, error) {
	return RunCountContext(context.Background(), cfg)
}

// RunCountContext is RunCount with cancellation, with the same semantics as
// RunContext: ctx is polled at chunk and pass boundaries and blocked ranks
// are aborted through the runtime.
func RunCountContext(ctx context.Context, cfg Config) (*CountResult, error) {
	cfg.CCOpt = false // no DSU exists; tuple values stay read IDs
	pl, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	defer pl.heap.finish()
	spillDir, err := pl.spillScratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spillDir)

	world := mpirt.NewWorld(cfg.Tasks, cfg.Network)
	world.SetCollector(cfg.Obs)
	perPass := make([][]taskCounts, cfg.Passes)
	for s := range perPass {
		perPass[s] = make([]taskCounts, cfg.Tasks)
	}
	reports := make([]TaskReport, cfg.Tasks)

	start := time.Now()
	err = world.RunContext(ctx, func(task *mpirt.Task) error {
		st := newTaskState(ctx, pl, task)
		sink, err := st.openPasses(spillDir)
		defer st.closePasses(sink)
		if err != nil {
			return err
		}
		err = st.runPasses(sink, func(s int, srcs []*groupSource) error {
			return st.countGroups(&perPass[s][st.rank], srcs)
		})
		if err != nil {
			return err
		}
		st.rep.BytesSent = task.BytesSent()
		st.finishObs()
		reports[st.rank] = st.rep
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &CountResult{Steps: MaxOf(stepsOf(reports)), Wall: time.Since(start)}
	for s := 0; s < cfg.Passes; s++ {
		for rank := 0; rank < cfg.Tasks; rank++ {
			tc := &perPass[s][rank]
			res.KmersLo = append(res.KmersLo, tc.lo...)
			res.KmersHi = append(res.KmersHi, tc.hi...)
			res.Counts = append(res.Counts, tc.counts...)
		}
	}
	if pl.use64() {
		res.KmersHi = nil
	}
	for _, rep := range reports {
		res.Tuples += rep.Tuples
	}
	return res, nil
}

// countGroups is the counter's LocalCC: it compacts every group of the
// pass's sorted sources into a (k-mer, count) pair. Sources cover ascending
// thread ranges, so appending them in order stays sorted.
func (st *taskState) countGroups(tc *taskCounts, srcs []*groupSource) error {
	defer closeSources(srcs)
	t0 := time.Now()
	wide := !st.p.use64()
	for _, src := range srcs {
		for {
			hi, lo, vals, ok := src.next()
			if !ok {
				break
			}
			tc.lo = append(tc.lo, lo)
			if wide {
				tc.hi = append(tc.hi, hi)
			}
			tc.counts = append(tc.counts, uint32(len(vals)))
		}
		if src.err != nil {
			return src.err
		}
		src.close()
	}
	d := time.Since(t0)
	st.rep.Steps.LocalCC += d
	st.stepSpan("LocalCC", t0, d)
	return nil
}

// closeFiles releases a task's input handles.
func (st *taskState) closeFiles() {
	for _, f := range st.files {
		if f != nil {
			f.Close()
		}
	}
}
