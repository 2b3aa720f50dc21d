package mpirt

import (
	"sync"
	"time"
)

// This file adds the nonblocking send — ISend returning a request handle,
// completed by Wait/WaitAll — used by the collectives
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
//   - Receives stay blocking (Recv): each (src,dst) pair is a FIFO
//     channel, so the channel itself is the posted receive buffer.
//   - Wait completes the request. The modeled transfer time is charged to
//     the task's communication clock at completion, not at the ISend call:
//     under the NetworkModel, communication cost materializes when the
//     program actually synchronizes on the transfer.
//   - Abort/cancel propagation wakes blocked waiters: when the world fails,
//     flusher goroutines abort their queues and Wait panics with the same
//     worldAborted sentinel the blocking primitives use, recovered by
//     RunContext — so only the goroutine running the task body may Wait.

// Request is an in-flight nonblocking send returned by ISend and completed
// by Wait. A Request must be waited by exactly one goroutine.
type Request struct {
	msg   message
	dst   int
	bytes int
	cost  time.Duration
	// done closes when the message has been handed to the destination
	// channel (or the request was aborted). Closed-with-aborted-set is
	// ordered before Wait's read by the channel-close happens-before edge.
	done      chan struct{}
	aborted   bool
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

// Wait blocks until the send completes. The modeled transfer time and byte
// count are charged to this task's communication clock here — at
// completion — so overlapped schedules account cost where the program
// synchronizes. Wait on an already-completed request is a no-op. If the
// world was aborted before the request could complete, Wait panics with the
// abort sentinel (recovered by RunContext).
func (t *Task) Wait(r *Request) {
	if r.completed {
		return
	}
	r.completed = true
	w := t.world
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
}

// WaitAll completes every request in order.
func (t *Task) WaitAll(rs []*Request) {
	for _, r := range rs {
		t.Wait(r)
	}
}
