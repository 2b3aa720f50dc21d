package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"metaprep"
)

// prepareBatch finishes a set-up round for a batch workload: the oracle's
// answers and the warm-up ops. One slice = one full Partition call.
func prepareBatch(e *benchEnv) (*prepared, error) {
	oracle := e.prep.Oracle
	if oracle == nil {
		return nil, fmt.Errorf("set-up child ran no oracle")
	}
	want := *oracle
	if e.o.fault == "ref-label" {
		// Seeded fault: a reference that differs in one label must fail
		// every op.
		labels, err := metaprep.LoadLabels(e.dir.labels())
		if err != nil {
			return nil, err
		}
		labels[len(labels)/2] ^= 1
		want.LabelsHash = hashLabels(labels)
	}
	base := batchConfig(e.w, e.idx, e.dir.out(), e.dir.spill())
	p := &prepared{close: func() {}}

	p.one = func(i int, traced bool) (slice, error) {
		// Untimed: scratch cleanup and a full GC, so no slice inherits the
		// previous one's garbage or files.
		if err := resetDirs(e.dir.out(), e.dir.spill()); err != nil {
			return slice{}, err
		}
		runtime.GC()
		cfg := base
		var sp int
		if traced {
			cfg.Obs = metaprep.NewCollector()
			sp = e.tr.begin(e.root, "core", "Partition")
		}
		c0, t0 := cpuTime(), time.Now()
		res, err := metaprep.Partition(cfg)
		d := time.Since(t0)
		cpu := cpuTime() - c0
		if err != nil {
			return slice{}, fmt.Errorf("op %d: %w", i, err)
		}
		if traced {
			e.tr.end(sp)
			e.tr.adoptSteps(sp, cfg.Obs)
		}
		s := summarize(res, d)
		e.rep.attempted++
		switch {
		case s.LabelsHash != want.LabelsHash:
			e.rep.fail("op %d: labels hash %s, oracle %s", i, s.LabelsHash, want.LabelsHash)
		case s.Components != want.Components || s.Largest != want.Largest:
			e.rep.fail("op %d: %d components / largest %d, oracle %d / %d", i, s.Components, s.Largest, want.Components, want.Largest)
		case e.w.output:
			n, err := countRecords(append(append([]string(nil), res.LCFiles...), res.OtherFiles...))
			if err != nil {
				return slice{}, err
			}
			if n != e.idx.Records {
				e.rep.fail("op %d: %d records written, index has %d", i, n, e.idx.Records)
			}
		}
		return slice{busy: d, cpu: cpu, kmers: e.idx.TotalKmers, ops: []time.Duration{d}, traced: traced, run: &s}, nil
	}

	// Warm-up ops: page faults, the page cache and allocator growth are
	// paid here, inside set-up; the second runs on the heap the first grew.
	for i := 0; i < warmupOps; i++ {
		if _, err := p.one(-1-i, false); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// warmupOps is the number of untimed Partition calls that end a batch
// set-up round.
const warmupOps = 2

func resetDirs(dirs ...string) error {
	for _, d := range dirs {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	return nil
}

// countRecords counts FASTQ records (4 lines each) across files. The
// pipeline writes canonical 4-line records, which fastq's own tests pin.
func countRecords(files []string) (int64, error) {
	buf := make([]byte, 1<<20)
	var lines int64
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return 0, err
		}
		for {
			n, err := f.Read(buf)
			lines += int64(bytes.Count(buf[:n], []byte{'\n'}))
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return 0, err
			}
		}
		f.Close()
	}
	if lines%4 != 0 {
		return 0, fmt.Errorf("output holds %d lines, not a multiple of 4", lines)
	}
	return lines / 4, nil
}
