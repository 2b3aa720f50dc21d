package core

import (
	"runtime/metrics"
	"sync/atomic"
	"time"

	"metaprep/internal/obsv"
)

// memwatch.go samples the Go runtime's heap for the trace and the run
// counters. At every step boundary a task records the live heap and the
// GC's heap goal as a "heap" counter event on its trace track, and the run
// ends by registering two run-wide counters:
//   - mem/alloc_bytes: the bytes allocated on the heap over the run
//     (the /gc/heap/allocs:bytes delta);
//   - mem/heap_live_peak_bytes: the largest live heap sampled.
//
// All of it is process-wide: the runtime keeps one heap per process, so
// runs sharing a process (the daemon's concurrent jobs, a test binary)
// count each other's bytes. RSS follows the live heap plus the GC's
// headroom over it, and that headroom fills with whatever the run
// allocates between collections — which is why the alloc counter sits next
// to the §3.7 plan.

// heapWatch is one run's heap sampler; nil (no collector) is a no-op.
type heapWatch struct {
	obs      *obsv.Collector
	allocs0  uint64
	livePeak atomic.Uint64
}

// heapMetrics are the runtime/metrics readHeap samples, in its return
// order.
var heapMetrics = [...]string{"/gc/heap/live:bytes", "/gc/heap/goal:bytes", "/gc/heap/allocs:bytes"}

func readHeap() (live, goal, allocs uint64) {
	var s [len(heapMetrics)]metrics.Sample
	for i, name := range heapMetrics {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

func newHeapWatch(obs *obsv.Collector) *heapWatch {
	if obs == nil {
		return nil
	}
	h := &heapWatch{obs: obs}
	_, _, h.allocs0 = readHeap()
	return h
}

// sample records the heap at one of task rank's step boundaries.
func (h *heapWatch) sample(rank int) {
	if h == nil {
		return
	}
	live, goal, _ := readHeap()
	h.obs.RecordCounter(rank, "heap", time.Now(), map[string]any{"live": live, "goal": goal})
	for {
		p := h.livePeak.Load()
		if live <= p || h.livePeak.CompareAndSwap(p, live) {
			return
		}
	}
}

// finish registers the run counters.
func (h *heapWatch) finish() {
	if h == nil {
		return
	}
	_, _, allocs := readHeap()
	h.obs.Counter(obsv.RankGlobal, "mem/alloc_bytes").Add(allocs - h.allocs0)
	h.obs.Counter(obsv.RankGlobal, "mem/heap_live_peak_bytes").Add(h.livePeak.Load())
}
