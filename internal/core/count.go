package core

import (
	"context"
	"fmt"
	"time"

	"metaprep/internal/mpirt"
)

// count.go runs the pipeline as a distributed k-mer counter — the reuse the
// paper's abstract promises ("efficient implementations of several
// computational subroutines (e.g., k-mer enumeration and counting …) that
// occur in other genomic data analysis problems"). The counter is the first
// three steps verbatim — KmerGen, KmerGen-Comm, LocalSort — with the sorted
// runs compacted into (k-mer, count) pairs instead of union–find edges.
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

// RunCount executes the counting pipeline. The counter runs in RAM only: a
// SpillBudgetBytes that would make the plan spill is rejected with a
// *ConfigError (Passes is the counter's memory knob). The Filter, CCOpt,
// OutDir, SplitComponents and Prefilter fields of cfg are ignored (every
// k-mer is counted); everything else (tasks, threads, passes, network
// model) applies as in Run.
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
	if pl.spill {
		// A spilling plan sizes no kmerIn (bufTuples drops the receive
		// term), and the counter has no run-builder path to land in.
		return nil, &ConfigError{Field: "SpillBudgetBytes",
			Reason: fmt.Sprintf("%d would spill, but the k-mer counter runs in RAM only (raise the budget or add Passes)", cfg.SpillBudgetBytes)}
	}

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
		defer st.closeFiles()
		files, err := openInputs(pl.idx)
		if err != nil {
			return err
		}
		st.files = files
		wide := !pl.use64()
		st.out = cfg.acquireTupleBuf(pl.bufTuples[st.rank], wide)
		st.in = cfg.acquireTupleBuf(pl.bufTuples[st.rank], wide)
		defer func() {
			cfg.releaseTupleBuf(st.out)
			cfg.releaseTupleBuf(st.in)
		}()

		for s := 0; s < cfg.Passes; s++ {
			rl, err := st.genExchange(s)
			if err != nil {
				return err
			}
			sl := pl.sortLayout(s, st.rank, rl)
			st.localSort(s, sl)

			// Compact sorted runs into counts. Partitions are ascending
			// thread ranges, so appending in partition order stays sorted.
			t0 := time.Now()
			tc := &perPass[s][st.rank]
			for d := 0; d < cfg.Threads; d++ {
				st.out.forRuns(sl.partOff[d], sl.partCnt[d], func(a, b uint64) {
					tc.lo = append(tc.lo, st.out.lo[a])
					if wide {
						tc.hi = append(tc.hi, st.out.hi[a])
					}
					tc.counts = append(tc.counts, uint32(b-a))
				})
			}
			d := time.Since(t0)
			st.rep.Steps.LocalCC += d
			st.stepSpan("LocalCC", t0, d)
			task.Barrier()
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

// closeFiles releases a task's input handles.
func (st *taskState) closeFiles() {
	for _, f := range st.files {
		if f != nil {
			f.Close()
		}
	}
}
