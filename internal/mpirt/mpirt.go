// Package mpirt is a small in-process message-passing runtime standing in
// for MPI in the METAPREP pipeline. Each "task" (the paper's MPI rank,
// typically one per compute node) runs as a goroutine group with a rank and
// point-to-point channels to every other task.
//
// The runtime reproduces the paper's communication schedules rather than
// hiding them behind a collective library:
//
//   - the custom all-to-all of §3.3 (P stages, stage i sends to rank+i mod
//     P), built from point-to-point messages exactly because MPI_Alltoallv's
//     32-bit counts could not address the paper's buffer sizes;
//   - the ⌈log P⌉-round component merge tree of §3.6 (Fig. 4), in which
//     higher ranks send their component arrays to lower ranks and drop out;
//   - a tree broadcast for returning the global component array.
//
// Because all tasks share one address space here, transfers would otherwise
// be free; an optional NetworkModel charges each message α + bytes/β
// (latency plus serialization at link bandwidth) to the sender's
// communication clock. The pipeline folds those clocks into its
// communication step times, restoring the inter-node costs the paper
// measures on the Cray XC30 (8 GB/s links).
package mpirt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"metaprep/internal/obsv"
)

// NetworkModel describes the simulated interconnect. The zero value (or a
// nil pointer) disables communication-time accounting.
type NetworkModel struct {
	// Latency is the per-message setup cost (α).
	Latency time.Duration
	// BandwidthBytesPerSec is the point-to-point link bandwidth (β).
	BandwidthBytesPerSec float64
}

// EdisonNetwork returns a model of the machine used in the paper's
// evaluation: NERSC Edison's 8 GB/s point-to-point links with ~1 µs
// latency.
func EdisonNetwork() *NetworkModel {
	return &NetworkModel{Latency: time.Microsecond, BandwidthBytesPerSec: 8e9}
}

// Cost returns the modeled transfer time of a message of the given size.
func (m *NetworkModel) Cost(bytes int) time.Duration {
	if m == nil || bytes < 0 {
		return 0
	}
	d := m.Latency
	if m.BandwidthBytesPerSec > 0 {
		d += time.Duration(float64(bytes) / m.BandwidthBytesPerSec * float64(time.Second))
	}
	return d
}

// message is one point-to-point transfer.
type message struct {
	tag     int
	payload any
	bytes   int
}

// worldAborted is the sentinel panic value blocked operations raise when a
// peer task fails; Run recovers it so a single failure aborts the whole run
// instead of deadlocking the survivors.
type worldAborted struct{}

// ErrPeerFailed is reported by tasks that were aborted because another task
// returned an error first.
var ErrPeerFailed = errors.New("mpirt: aborted because a peer task failed")

// World is a communicator over P tasks.
type World struct {
	p     int
	model *NetworkModel
	// obs, when non-nil, records every point-to-point transfer as a trace
	// span (category "comm", tid obsv.TidComm, pid = rank) carrying the
	// wire size and the modeled transfer-time charge as span metadata.
	obs *obsv.Collector
	// chans[dst][src] carries messages from src to dst.
	chans [][]chan message
	// outs[dst][src] queues nonblocking sends from src to dst that did not
	// fit in the channel buffer; a per-pair flusher goroutine drains it in
	// FIFO order (see ISend).
	outs [][]*outbox

	barrierMu  sync.Mutex
	barrierN   int
	barrierGen int
	barrierC   *sync.Cond

	// failed closes when any task returns an error, waking every blocked
	// communication call.
	failed   chan struct{}
	failOnce sync.Once
}

// fail marks the world failed, releasing all blocked operations.
func (w *World) fail() {
	w.failOnce.Do(func() {
		close(w.failed)
		// Wake barrier waiters so they can observe the failure.
		w.barrierMu.Lock()
		w.barrierGen++
		w.barrierC.Broadcast()
		w.barrierMu.Unlock()
	})
}

// aborted reports whether the world has failed.
func (w *World) aborted() bool {
	select {
	case <-w.failed:
		return true
	default:
		return false
	}
}

// NewWorld creates a communicator for p tasks with an optional network
// model (nil for no communication-time accounting).
func NewWorld(p int, model *NetworkModel) *World {
	if p < 1 {
		panic("mpirt: world size must be ≥ 1")
	}
	w := &World{p: p, model: model, failed: make(chan struct{})}
	w.chans = make([][]chan message, p)
	w.outs = make([][]*outbox, p)
	for d := range w.chans {
		w.chans[d] = make([]chan message, p)
		w.outs[d] = make([]*outbox, p)
		for s := range w.chans[d] {
			w.chans[d][s] = make(chan message, 8)
			w.outs[d][s] = &outbox{}
		}
	}
	w.barrierC = sync.NewCond(&w.barrierMu)
	return w
}

// Size returns the number of tasks.
func (w *World) Size() int { return w.p }

// SetCollector attaches an observability collector to the world. Call
// before Run; a nil collector (the default) keeps communication
// unobserved and free of any tracing overhead.
func (w *World) SetCollector(c *obsv.Collector) { w.obs = c }

// Task is one rank's endpoint in a World. A Task must only be used by the
// goroutine running that rank (per-task state, like the paper's per-process
// buffers, is single-owner); its communication clock is read by the
// pipeline between steps.
type Task struct {
	world *World
	rank  int

	// commTime accumulates modeled transfer time for messages this task
	// sent or self-delivered. Read with TakeCommTime between steps.
	commTime time.Duration
	// bytesSent accumulates payload bytes this task sent to other ranks.
	bytesSent int64
	// stageBytes[i] is the traced AllToAll's stage-i volume counter,
	// resolved on the first traced call so that later calls format no
	// counter names.
	stageBytes []*obsv.Counter
}

// Rank returns this task's rank in [0, Size).
func (t *Task) Rank() int { return t.rank }

// Size returns the world size.
func (t *Task) Size() int { return t.world.p }

// Send delivers payload to dst with the given tag. bytes is the payload's
// wire size, charged to this task's communication clock under the network
// model (self-sends are free). Send blocks only if dst's inbound channel
// from this rank is full.
func (t *Task) Send(dst, tag int, payload any, bytes int) {
	var cost time.Duration
	if dst != t.rank {
		cost = t.world.model.Cost(bytes)
		t.commTime += cost
		t.bytesSent += int64(bytes)
	}
	obs := t.world.obs
	var sp obsv.Span
	if obs != nil {
		sp = obs.StartSpan(t.rank, obsv.TidComm, "comm", "send")
	}
	select {
	case t.world.chans[dst][t.rank] <- message{tag: tag, payload: payload, bytes: bytes}:
	case <-t.world.failed:
		panic(worldAborted{})
	}
	if obs != nil {
		// The span's wall duration is the (tiny) in-process hand-off; the
		// simulated inter-node charge rides along as metadata so Perfetto
		// shows both the real and the modeled cost.
		sp.EndArgs(map[string]any{
			"dst": dst, "tag": tag, "bytes": bytes,
			"model_cost_us": float64(cost.Nanoseconds()) / 1e3,
		})
	}
}

// Recv receives the next message from src, which must carry the expected
// tag; a tag mismatch is a protocol bug and panics. It returns the payload.
func (t *Task) Recv(src, tag int) any {
	obs := t.world.obs
	var sp obsv.Span
	if obs != nil {
		sp = obs.StartSpan(t.rank, obsv.TidComm, "comm", "recv")
	}
	var m message
	select {
	case m = <-t.world.chans[t.rank][src]:
	case <-t.world.failed:
		panic(worldAborted{})
	}
	if obs != nil {
		sp.EndArgs(map[string]any{"src": src, "tag": m.tag, "bytes": m.bytes})
	}
	if m.tag != tag {
		panic(fmt.Sprintf("mpirt: rank %d expected tag %d from %d, got %d", t.rank, tag, src, m.tag))
	}
	return m.payload
}

// TakeCommTime returns the modeled communication time accumulated since the
// previous call and resets the clock. The pipeline calls this at step
// boundaries to attribute transfer cost to the right step.
func (t *Task) TakeCommTime() time.Duration {
	d := t.commTime
	t.commTime = 0
	return d
}

// BytesSent returns the total payload bytes sent to other ranks.
func (t *Task) BytesSent() int64 { return t.bytesSent }

// Barrier blocks until every task in the world has called it (a cyclic
// barrier, reusable across steps).
func (t *Task) Barrier() {
	w := t.world
	w.barrierMu.Lock()
	if w.aborted() {
		w.barrierMu.Unlock()
		panic(worldAborted{})
	}
	gen := w.barrierGen
	w.barrierN++
	if w.barrierN == w.p {
		w.barrierN = 0
		w.barrierGen++
		w.barrierC.Broadcast()
	} else {
		for gen == w.barrierGen {
			w.barrierC.Wait()
		}
	}
	aborted := w.aborted()
	w.barrierMu.Unlock()
	if aborted {
		panic(worldAborted{})
	}
}

// Run executes body once per rank on its own goroutine and waits for all of
// them, returning the first non-nil error. When any task fails, peers
// blocked in Send, Recv or Barrier are aborted (they report ErrPeerFailed),
// so a single failure terminates the whole run instead of deadlocking it.
func (w *World) Run(body func(t *Task) error) error {
	return w.RunContext(context.Background(), body)
}

// RunContext is Run with cancellation: when ctx is cancelled the world is
// failed through the same abort-propagation path a crashed peer uses, so
// every task blocked in Send, Recv or Barrier wakes promptly instead of
// deadlocking, and RunContext returns ctx.Err(). Tasks that are mid-compute
// are not preempted — long compute loops must poll ctx themselves (the core
// pipeline checks it at chunk and step boundaries).
func (w *World) RunContext(ctx context.Context, body func(t *Task) error) error {
	done := make(chan struct{})
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				w.fail()
			case <-done:
			}
		}()
	}
	errs := make([]error, w.p)
	var wg sync.WaitGroup
	wg.Add(w.p)
	for r := 0; r < w.p; r++ {
		go func(r int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(worldAborted); ok {
						errs[r] = ErrPeerFailed
						return
					}
					panic(rec)
				}
			}()
			errs[r] = body(&Task{world: w, rank: r})
			if errs[r] != nil {
				w.fail()
			}
		}(r)
	}
	wg.Wait()
	close(done)
	// A cancelled context is the root cause, whatever shape the per-task
	// aborts took.
	if err := ctx.Err(); err != nil {
		return err
	}
	// Prefer a root-cause error over the peers' ErrPeerFailed echoes.
	var peerErr error
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrPeerFailed) {
			return err
		}
		if err != nil && peerErr == nil {
			peerErr = err
		}
	}
	return peerErr
}

// AllToAll runs the paper's custom all-to-all schedule: P stages, where in
// stage i this rank sends to (rank+i) mod P and receives from (rank-i) mod
// P. Stage 0 is the self-exchange. send must return the payload and wire
// size destined for dst; recv consumes the payload that arrived from src.
//
// Every stage's message is posted before the first receive, as with one
// nonblocking send per stage: a rank's peers get its data as soon as it is
// ready, not only after it has consumed its own earlier stages, so a slow
// recv never holds up the peers. A send cannot block here, because a pair
// has at most two all-to-all messages in flight (a rank finishes a call
// only after every peer has posted its messages for it) and its channel
// holds eight. Receives run in stage order, and each task's modeled
// communication time is still the sum of its per-stage transfer costs.
func (t *Task) AllToAll(tag int, send func(dst int) (any, int), recv func(src int, payload any)) {
	p := t.world.p
	if obs := t.world.obs; obs != nil && t.stageBytes == nil {
		// Per-stage volume: the skew across stages is the §3.3 all-to-all's
		// load-imbalance signal (cf. Fig. 8).
		t.stageBytes = make([]*obsv.Counter, p)
		for i := range t.stageBytes {
			t.stageBytes[i] = obs.Counter(t.rank, fmt.Sprintf("alltoall/stage%03d/bytes", i))
		}
	}
	for i := 0; i < p; i++ {
		dst := (t.rank + i) % p
		payload, bytes := send(dst)
		t.Send(dst, tag, payload, bytes)
		if t.stageBytes != nil {
			t.stageBytes[i].Add(uint64(bytes))
		}
	}
	for i := 0; i < p; i++ {
		src := (t.rank - i + p) % p
		recv(src, t.Recv(src, tag))
	}
}

// TreeMerge runs the ⌈log P⌉-round reduction of §3.6 (Fig. 4). In round r
// the surviving ranks are the multiples of 2^r; of those, ranks with bit r
// set send their state to (rank − 2^r) and drop out, and the receivers fold
// the received state into their own. send produces this task's state and
// its wire size; recv folds a peer's state in. TreeMerge reports whether
// this task survived every round (true exactly for rank 0), i.e. holds the
// fully merged state.
func (t *Task) TreeMerge(tag int, send func(dst int) (any, int), recv func(src int, payload any)) bool {
	p := t.world.p
	obs := t.world.obs
	round := 0
	for step := 1; step < p; step <<= 1 {
		if t.rank&(step-1) != 0 {
			break // dropped out in an earlier round
		}
		if t.rank&step != 0 {
			dst := t.rank - step
			var sp obsv.Span
			if obs != nil {
				sp = obs.StartSpan(t.rank, obsv.TidComm, "comm", "merge-round")
			}
			payload, bytes := send(dst)
			t.Send(dst, tag, payload, bytes)
			if obs != nil {
				sp.EndArgs(map[string]any{"round": round, "role": "send", "dst": dst, "bytes": bytes})
			}
			return false
		}
		if src := t.rank + step; src < p {
			var sp obsv.Span
			if obs != nil {
				sp = obs.StartSpan(t.rank, obsv.TidComm, "comm", "merge-round")
			}
			recv(src, t.Recv(src, tag))
			if obs != nil {
				sp.EndArgs(map[string]any{"round": round, "role": "recv+fold", "src": src})
			}
		}
		round++
	}
	return t.rank == 0
}
