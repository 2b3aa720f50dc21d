package mpirt

import (
	"fmt"
	"sync"
	"time"
)

// This file adds nonblocking point-to-point primitives — ISend/IRecv
// returning request handles plus Wait/WaitAll — used by the collectives
// (PipelinedTreeMerge, TreeBroadcast) to keep sends in flight while the
// task folds or relays.
//
// Semantics mirror MPI's nonblocking calls, adapted to the in-process
// runtime:
//
//   - ISend never blocks the caller. The message is handed to the
//     destination channel immediately when it has room; otherwise it is
//     appended to a per-(src,dst) outbox drained in FIFO order by a flusher
//     goroutine, so per-pair message ordering matches blocking Send.
//   - IRecv is lazy: the matching channel receive happens inside Wait.
//     Because each (src,dst) pair is a FIFO channel, this is equivalent to
//     posting the receive eagerly — the channel itself is the posted buffer.
//   - Wait completes the request. For sends, the modeled transfer time is
//     charged to the task's communication clock at completion, not at the
//     ISend call: under the NetworkModel, communication cost materializes
//     when the program actually synchronizes on the transfer.
//   - Abort/cancel propagation wakes blocked waiters: when the world fails,
//     flusher goroutines abort their queues and Wait panics with the same
//     worldAborted sentinel the blocking primitives use, recovered by
//     RunContext — so only the goroutine running the task body may Wait.

// Request is an in-flight nonblocking operation returned by ISend or IRecv
// and completed by Wait. A Request must be waited by exactly one goroutine.
type Request struct {
	// Send-side fields.
	msg  message
	dst  int
	cost time.Duration
	// done closes when the message has been handed to the destination
	// channel (or the request was aborted). Closed-with-aborted-set is
	// ordered before Wait's read by the channel-close happens-before edge.
	done    chan struct{}
	aborted bool

	// Recv-side fields.
	isRecv bool
	src    int
	tag    int

	bytes     int
	payload   any
	completed bool
}

// outbox holds nonblocking sends for one (src,dst) pair that did not fit in
// the destination channel's buffer. While active, a flusher goroutine owns
// the head of the queue and drains it in order.
type outbox struct {
	mu     sync.Mutex
	queue  []*Request
	active bool
}

// ISend starts a nonblocking send of payload to dst and returns a request
// handle; the caller must eventually Wait it. ISend itself never blocks:
// if the destination channel is full the message is queued on the pair's
// outbox and delivered asynchronously, preserving FIFO order with respect
// to every other send from this rank to dst. The modeled transfer cost is
// computed here but charged to the communication clock only when Wait
// completes the request.
func (t *Task) ISend(dst, tag int, payload any, bytes int) *Request {
	w := t.world
	r := &Request{dst: dst, bytes: bytes, done: make(chan struct{})}
	if dst != t.rank {
		r.cost = w.model.Cost(bytes)
	}
	m := message{tag: tag, payload: payload, bytes: bytes}
	ob := w.outs[dst][t.rank]
	ob.mu.Lock()
	if !ob.active {
		// Queue is empty and no flusher owns the pair: a direct
		// nonblocking hand-off keeps FIFO order and skips the goroutine.
		select {
		case w.chans[dst][t.rank] <- m:
			ob.mu.Unlock()
			close(r.done)
			return r
		default:
		}
		ob.active = true
		r.msg = m
		ob.queue = append(ob.queue, r)
		ob.mu.Unlock()
		go w.flushOutbox(ob, dst, t.rank)
		return r
	}
	r.msg = m
	ob.queue = append(ob.queue, r)
	ob.mu.Unlock()
	return r
}

// flushOutbox drains one pair's outbox in FIFO order, blocking on the
// destination channel. On world failure it aborts the head request and the
// whole remaining queue so every waiter wakes.
func (w *World) flushOutbox(ob *outbox, dst, src int) {
	ch := w.chans[dst][src]
	for {
		ob.mu.Lock()
		if len(ob.queue) == 0 {
			ob.active = false
			ob.mu.Unlock()
			return
		}
		r := ob.queue[0]
		ob.queue = ob.queue[1:]
		ob.mu.Unlock()
		select {
		case ch <- r.msg:
			close(r.done)
		case <-w.failed:
			r.aborted = true
			close(r.done)
			ob.mu.Lock()
			rest := ob.queue
			ob.queue = nil
			ob.active = false
			ob.mu.Unlock()
			for _, q := range rest {
				q.aborted = true
				close(q.done)
			}
			return
		}
	}
}

// IRecv posts a nonblocking receive for the next message from src with the
// given tag. The actual channel receive happens in Wait; the per-pair FIFO
// channel is the posted buffer, so matching order is identical to eager
// posting.
func (t *Task) IRecv(src, tag int) *Request {
	return &Request{isRecv: true, src: src, tag: tag}
}

// Wait blocks until the request completes and returns the received payload
// (nil for sends). For sends, the modeled transfer time and byte count are
// charged to this task's communication clock here — at completion — so
// overlapped schedules account cost where the program synchronizes. Wait on
// an already-completed request is a cheap no-op returning the same payload.
// If the world was aborted before the request could complete, Wait panics
// with the abort sentinel (recovered by RunContext).
func (t *Task) Wait(r *Request) any {
	if r.completed {
		return r.payload
	}
	r.completed = true
	w := t.world
	if r.isRecv {
		var m message
		select {
		case m = <-w.chans[t.rank][r.src]:
		case <-w.failed:
			// A message may have raced in just as the world failed;
			// prefer completing over aborting if one is ready.
			select {
			case m = <-w.chans[t.rank][r.src]:
			default:
				panic(worldAborted{})
			}
		}
		if m.tag != r.tag {
			panic(fmt.Sprintf("mpirt: rank %d expected tag %d from %d, got %d",
				t.rank, r.tag, r.src, m.tag))
		}
		r.payload = m.payload
		r.bytes = m.bytes
		return m.payload
	}
	select {
	case <-r.done:
	case <-w.failed:
		// The flusher owns the request and will close done promptly after
		// observing the failure (or already delivered it).
		<-r.done
	}
	if r.aborted {
		panic(worldAborted{})
	}
	if r.dst != t.rank {
		t.commTime += r.cost
		t.bytesSent += int64(r.bytes)
	}
	return nil
}

// WaitAll completes every request in order.
func (t *Task) WaitAll(rs []*Request) {
	for _, r := range rs {
		t.Wait(r)
	}
}

// Abort fails the whole world from inside a task body, waking every peer
// blocked in a communication call at once rather than when the body
// returns its error.
func (t *Task) Abort() { t.world.fail() }
