package mpirt

import "metaprep/internal/obsv"

// This file adds the back-half collectives: the pipelined delta tree merge
// (MergeCC's §3.6 reduction restructured so rounds stream sparse deltas over
// the nonblocking primitives) and the tree broadcast used to return the
// global component array.

// PipelinedTreeMerge runs the §3.6 merge tree as a multi-round pipeline of
// incremental payloads instead of one shot per rank.
//
// In the classic TreeMerge a rank snapshots its whole state exactly once, in
// the round its low bit selects. Here every non-zero rank x sends to its
// fixed tree parent d(x) = x − lowbit(x) in each round j = 0 … r(x) (where
// r(x) is the index of x's lowest set bit): round 0 carries x's baseline
// state and each later round carries only what changed after absorbing the
// previous round's children. Receivers fold children in ascending subtree
// order; rank 0, the root, receives in every round and never sends.
//
// snapshot(j) must produce the round-j payload and its wire size; ownership
// of the payload transfers to the receiver (the sender must not reuse the
// buffer — deltas after round 0 are small, so per-round allocation is the
// intended idiom). absorb(src, j, payload) folds a child's round-j payload
// into local state. Sends use ISend so a round's transfer overlaps the
// parent's absorb of the previous round; per-round tags occupy
// [tag, tag+⌈log₂P⌉).
//
// It reports whether this task holds the fully merged state (true exactly
// for rank 0).
func (t *Task) PipelinedTreeMerge(tag int, snapshot func(round int) (any, int), absorb func(src, round int, payload any)) bool {
	p := t.world.p
	if p == 1 {
		return true
	}
	obs := t.world.obs
	// rounds = ⌈log₂ p⌉: the number of rounds rank 0 participates in.
	rounds := 0
	for 1<<rounds < p {
		rounds++
	}
	// r(x): index of the lowest set bit — the last round x sends in.
	last := rounds - 1
	if t.rank != 0 {
		last = 0
		for t.rank&(1<<last) == 0 {
			last++
		}
	}
	dst := t.rank - (t.rank & -t.rank)
	for j := 0; ; j++ {
		var req *Request
		if t.rank != 0 && j <= last {
			var sp obsv.Span
			if obs != nil {
				sp = obs.StartSpan(t.rank, obsv.TidComm, "comm", "merge-delta")
			}
			payload, bytes := snapshot(j)
			req = t.ISend(dst, tag+j, payload, bytes)
			if obs != nil {
				sp.EndArgs(map[string]any{"round": j, "role": "send", "dst": dst, "bytes": bytes})
			}
		}
		// Receive round-j deltas from every child that is still sending:
		// child x+2^u (u ≥ j) sends through its round u, so in round j the
		// still-active children are those with u ≥ j. For rank ≠ 0 this loop
		// only runs while j < r(x); rank 0 receives in every round.
		for u := j; 1<<u < p; u++ {
			if t.rank&((1<<(u+1))-1) != 0 {
				break // bit u (or lower) set: no children at step 2^u or above
			}
			src := t.rank + 1<<u
			if src >= p {
				break
			}
			var sp obsv.Span
			if obs != nil {
				sp = obs.StartSpan(t.rank, obsv.TidComm, "comm", "merge-delta")
			}
			absorb(src, j, t.Recv(src, tag+j))
			if obs != nil {
				sp.EndArgs(map[string]any{"round": j, "role": "recv+fold", "src": src})
			}
		}
		if req != nil {
			t.Wait(req)
		}
		if t.rank != 0 && j == last {
			return false
		}
		if t.rank == 0 && j == rounds-1 {
			return true
		}
	}
}

// TreeBroadcast distributes rank 0's state to every task along the binomial
// tree that mirrors TreeMerge's schedule, fanning out to all children with
// nonblocking sends so the subtree transfers overlap. Each relay's sends are
// charged to its own communication clock under the NetworkModel, so the
// modeled critical path is ⌈log₂P⌉ hops instead of the star's P−1 serialized
// sends from rank 0. On rank 0, send produces the payload per destination;
// on other ranks recv consumes the inbound payload first and the task then
// relays using send.
func (t *Task) TreeBroadcast(tag int, send func(dst int) (any, int), recv func(src int, payload any)) {
	p := t.world.p
	obs := t.world.obs
	relay := func(maxStep int) {
		var reqs []*Request
		var sp obsv.Span
		total, children := 0, 0
		if obs != nil {
			sp = obs.StartSpan(t.rank, obsv.TidComm, "comm", "bcast-fanout")
		}
		for step := maxStep; step >= 1; step >>= 1 {
			if dst := t.rank + step; dst < p {
				payload, bytes := send(dst)
				reqs = append(reqs, t.ISend(dst, tag, payload, bytes))
				total += bytes
				children++
			}
		}
		t.WaitAll(reqs)
		if obs != nil {
			sp.EndArgs(map[string]any{"children": children, "bytes": total})
		}
	}
	if t.rank != 0 {
		low := t.rank & -t.rank
		src := t.rank ^ low
		var sp obsv.Span
		if obs != nil {
			sp = obs.StartSpan(t.rank, obsv.TidComm, "comm", "bcast-recv")
		}
		recv(src, t.Recv(src, tag))
		if obs != nil {
			sp.EndArgs(map[string]any{"src": src})
		}
		relay(low >> 1)
		return
	}
	top := 1
	for top < p {
		top <<= 1
	}
	relay(top >> 1)
}
