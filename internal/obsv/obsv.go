// Package obsv is the pipeline's observability layer: low-overhead span
// tracing and typed atomic counters, exported as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing) and as machine-readable
// counter snapshots (text table, JSON, CSV).
//
// The central type is Collector. A nil *Collector is the no-op default:
// every method is safe to call on nil and does nothing, so instrumented
// code carries no "if enabled" branches and the disabled hot path costs a
// single nil check per call site — no allocations, no atomics
// (BenchmarkPipelineObsv in internal/core verifies neutrality).
//
// Conventions used by the pipeline:
//
//   - pid is the simulated MPI rank (one Perfetto "process" per task);
//   - tid is a per-task track: 0 = the step timeline, 1 = mpirt
//     communication, 10+t = worker thread t, 100+t = thread t's prefetch
//     reader;
//   - category "step" is reserved for the paper's eight pipeline steps.
//     Step spans are recorded with RecordSpan using the exact duration
//     charged to core.StepTimes (including modeled network time), so the
//     per-task sum of "step" spans equals StepTimes.Total exactly — the
//     invariant `metaprep checktrace` enforces.
package obsv

import (
	"sync"
	"time"
)

// Track-ID conventions (the tid values the pipeline uses; exported so the
// instrumentation sites and the trace reader agree).
const (
	TidSteps    = 0   // the per-task step timeline
	TidComm     = 1   // mpirt point-to-point communication
	TidArtifact = 5   // persistent-artifact emit/assembly and reload
	TidWorker   = 10  // + thread index: worker threads
	TidPrefetch = 100 // + thread index: prefetch reader goroutines
)

// Span phases of the Chrome trace-event format that the collector emits.
const (
	phaseComplete = "X" // a span with ts + dur
	phaseCounter  = "C" // a sample of one or more named values at ts
	phaseMeta     = "M" // process/thread naming metadata
)

// Event is one recorded trace event. Ts and Dur are nanoseconds relative
// to the collector's epoch; the JSON writer converts to the microsecond
// unit the trace-event format specifies.
type Event struct {
	Name  string
	Cat   string
	Phase string
	Pid   int
	Tid   int
	Ts    time.Duration
	Dur   time.Duration
	Args  map[string]any
}

// Collector gathers spans and counters for one run. Create with New; the
// nil collector is the valid, allocation-free no-op.
//
// Spans and counter samples are appended under a mutex (both are orders
// of magnitude rarer than the per-tuple work they measure); counters are
// lock-free atomics after a mutex-guarded first registration.
//
// A collector created with NewRing is a flight recorder: span events live
// in a fixed-capacity ring, the oldest overwritten once it fills, so an
// always-on collector holds a bounded window of recent activity no matter
// how long the run. Metadata events (process/thread names — a handful per
// rank) are kept outside the ring so a wrapped trace still names every
// track.
type Collector struct {
	epoch time.Time

	mu     sync.Mutex
	events []Event // meta + spans (unbounded mode); meta only (ring mode)

	// Ring mode (ringCap > 0): span events circulate through ring; start
	// is the oldest live slot and dropped counts overwritten events. Slots
	// are overwritten in place — a full ring allocates nothing per span.
	ringCap int
	ring    []Event
	start   int
	dropped uint64

	cmu      sync.Mutex
	counters map[counterKey]*Counter
	hists    map[counterKey]*Histogram
}

// New returns an enabled collector whose span clock starts now and whose
// event log grows without bound (the offline-trace default).
func New() *Collector {
	return &Collector{
		epoch:    time.Now(),
		counters: make(map[counterKey]*Counter),
		hists:    make(map[counterKey]*Histogram),
	}
}

// DefaultRingEvents is the flight-recorder capacity NewRing(0) uses: deep
// enough to hold the full span set of a multi-pass daemon job at default
// trace granularity, ~1 MB of bounded memory.
const DefaultRingEvents = 8192

// NewRing returns a flight-recorder collector: counters and histograms
// behave exactly as with New, but only the most recent `capacity` span
// events are retained (capacity ≤ 0 selects DefaultRingEvents). The ring
// is what lets the daemon run every job with tracing always on — memory
// stays bounded, and a trace of the last-N spans can be dumped on demand
// or on failure.
func NewRing(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultRingEvents
	}
	c := New()
	c.ringCap = capacity
	return c
}

// Dropped returns how many span events the ring has overwritten (0 for nil
// or unbounded collectors).
func (c *Collector) Dropped() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Epoch returns the collector's time origin (zero time for nil).
func (c *Collector) Epoch() time.Time {
	if c == nil {
		return time.Time{}
	}
	return c.epoch
}

// Span is an in-flight span handle returned by StartSpan. The zero Span
// (from a nil collector) is a no-op; End on it does nothing.
type Span struct {
	c     *Collector
	name  string
	cat   string
	pid   int
	tid   int
	start time.Time
}

// StartSpan begins a wall-clock span on (pid, tid). Pair with End or
// EndArgs.
func (c *Collector) StartSpan(pid, tid int, cat, name string) Span {
	if c == nil {
		return Span{}
	}
	return Span{c: c, name: name, cat: cat, pid: pid, tid: tid, start: time.Now()}
}

// End records the span with its measured wall duration.
func (s Span) End() { s.EndArgs(nil) }

// EndArgs records the span with the given metadata attached (args must be
// JSON-serializable values).
func (s Span) EndArgs(args map[string]any) {
	if s.c == nil {
		return
	}
	s.c.RecordSpan(s.pid, s.tid, s.cat, s.name, s.start, time.Since(s.start), args)
}

// RecordSpan records a complete span with an explicit start time and
// duration. Instrumentation uses this when the duration was already
// measured by the surrounding code — the pipeline records each step span
// with exactly the duration it adds to StepTimes, including modeled
// network transfer time, so trace sums reconcile with the step report.
func (c *Collector) RecordSpan(pid, tid int, cat, name string, start time.Time, dur time.Duration, args map[string]any) {
	if c == nil {
		return
	}
	ts := start.Sub(c.epoch)
	if ts < 0 {
		ts = 0
	}
	if dur < 0 {
		dur = 0
	}
	c.record(Event{
		Name: name, Cat: cat, Phase: phaseComplete,
		Pid: pid, Tid: tid, Ts: ts, Dur: dur, Args: args,
	})
}

// RecordCounter records a counter sample: the values in args (numbers, one
// per series) under name on pid's counter track at time at. Perfetto draws
// each name as a step chart per process.
func (c *Collector) RecordCounter(pid int, name string, at time.Time, args map[string]any) {
	if c == nil {
		return
	}
	ts := at.Sub(c.epoch)
	if ts < 0 {
		ts = 0
	}
	c.record(Event{Name: name, Phase: phaseCounter, Pid: pid, Ts: ts, Args: args})
}

// record appends a span or counter event, to the ring in ring mode.
func (c *Collector) record(ev Event) {
	c.mu.Lock()
	if c.ringCap > 0 {
		if len(c.ring) < c.ringCap {
			c.ring = append(c.ring, ev)
		} else {
			// Full: overwrite the oldest slot in place.
			c.ring[c.start] = ev
			c.start++
			if c.start == c.ringCap {
				c.start = 0
			}
			c.dropped++
		}
	} else {
		c.events = append(c.events, ev)
	}
	c.mu.Unlock()
}

// SetProcessName names a pid's track group in the trace viewer (the
// pipeline uses "task N" per rank).
func (c *Collector) SetProcessName(pid int, name string) {
	c.meta(pid, 0, "process_name", name)
}

// SetThreadName names a (pid, tid) track in the trace viewer.
func (c *Collector) SetThreadName(pid, tid int, name string) {
	c.meta(pid, tid, "thread_name", name)
}

func (c *Collector) meta(pid, tid int, kind, name string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.events = append(c.events, Event{
		Name: kind, Phase: phaseMeta, Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	})
	c.mu.Unlock()
}

// Events returns a copy of the recorded events (nil for a nil collector).
// In ring mode the copy holds the metadata events followed by the retained
// span window, oldest first.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, 0, len(c.events)+len(c.ring))
	out = append(out, c.events...)
	out = append(out, c.ring[c.start:]...)
	out = append(out, c.ring[:c.start]...)
	return out
}
