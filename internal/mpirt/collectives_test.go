package mpirt

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// collectives_test.go covers the back-half collectives: the pipelined delta
// tree merge (rank 0 must reconstruct the same global state the one-shot
// TreeMerge produces, from multi-round incremental payloads) and the
// tree/star broadcasts (delivery plus NetworkModel charging).

// deltaSet is the test stand-in for the DSU: a set of ints with shadow
// tracking, so snapshot(j) yields only elements added since the previous
// snapshot — exactly the contract core's SnapshotDelta implements.
type deltaSet struct {
	state  map[int]bool
	shadow map[int]bool
}

func (d *deltaSet) add(vals ...int) {
	for _, v := range vals {
		d.state[v] = true
	}
}

func (d *deltaSet) snapshot() []int {
	var out []int
	for v := range d.state {
		if !d.shadow[v] {
			d.shadow[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// rankItems is each rank's initial contribution: a deterministic, per-rank
// distinct set so a dropped or duplicated payload is visible in the union.
func rankItems(rank int) []int {
	n := rank%3 + 1
	items := make([]int, n)
	for i := range items {
		items[i] = rank*100 + i
	}
	return items
}

func TestPipelinedTreeMergeMatchesTreeMerge(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 13, 16, 17} {
		// Reference: the one-shot TreeMerge union.
		want := map[int]bool{}
		for r := 0; r < p; r++ {
			for _, v := range rankItems(r) {
				want[v] = true
			}
		}

		var mu sync.Mutex
		got := map[int]bool{}
		w := NewWorld(p, nil)
		err := w.Run(func(task *Task) error {
			ds := &deltaSet{state: map[int]bool{}, shadow: map[int]bool{}}
			ds.add(rankItems(task.Rank())...)
			root := task.PipelinedTreeMerge(10,
				func(round int) (any, int) {
					delta := ds.snapshot()
					return delta, 8 * len(delta)
				},
				func(src, round int, payload any) {
					ds.add(payload.([]int)...)
				},
			)
			if root != (task.Rank() == 0) {
				return fmt.Errorf("p=%d rank %d: root=%v", p, task.Rank(), root)
			}
			if root {
				mu.Lock()
				for v := range ds.state {
					got[v] = true
				}
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("p=%d: merged %d items, want %d", p, len(got), len(want))
		}
		for v := range want {
			if !got[v] {
				t.Fatalf("p=%d: merged state missing %d", p, v)
			}
		}
	}
}

// TestPipelinedTreeMergeDeltaPayloads checks the pipelining contract itself:
// after round 0's baseline, each payload carries only the sender's newly
// absorbed items, so the total wire volume stays O(items · depth) rather than
// resending full state every round, and rounds arrive in order per child.
func TestPipelinedTreeMergeDeltaPayloads(t *testing.T) {
	const p = 8
	type recvRec struct{ src, round, n int }
	var mu sync.Mutex
	recvs := map[int][]recvRec{} // receiver rank → sequence
	w := NewWorld(p, nil)
	err := w.Run(func(task *Task) error {
		ds := &deltaSet{state: map[int]bool{}, shadow: map[int]bool{}}
		ds.add(task.Rank())
		task.PipelinedTreeMerge(10,
			func(round int) (any, int) {
				delta := ds.snapshot()
				return delta, 8 * len(delta)
			},
			func(src, round int, payload any) {
				vals := payload.([]int)
				mu.Lock()
				recvs[task.Rank()] = append(recvs[task.Rank()], recvRec{src, round, len(vals)})
				mu.Unlock()
				ds.add(vals...)
			},
		)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-derived schedule for P=8. Rank 0's children are 1 (round 0 only),
	// 2 (rounds 0–1) and 4 (rounds 0–2); rank 4's are 5 and 6; rank 2's and
	// 6's are their +1 neighbours. Every rank starts with exactly one item
	// and each delta forwards what was just absorbed, so payload sizes are
	// forced: rank 4 sends 1 item in round 0 (itself), 2 in round 1 (it
	// absorbed 5's and 6's baselines during round 0), and 1 in round 2
	// (7's item, relayed through 6's round-1 delta).
	want := map[int][]recvRec{
		0: {{1, 0, 1}, {2, 0, 1}, {4, 0, 1}, {2, 1, 1}, {4, 1, 2}, {4, 2, 1}},
		2: {{3, 0, 1}},
		4: {{5, 0, 1}, {6, 0, 1}, {6, 1, 1}},
		6: {{7, 0, 1}},
	}
	for rank, seq := range want {
		got := recvs[rank]
		if len(got) != len(seq) {
			t.Fatalf("rank %d received %v, want %v", rank, got, seq)
		}
		for i := range seq {
			if got[i] != seq[i] {
				t.Fatalf("rank %d recv[%d] = %+v, want %+v", rank, i, got[i], seq[i])
			}
		}
	}
	for rank := range recvs {
		if _, ok := want[rank]; !ok {
			t.Fatalf("rank %d received %v, want nothing (leaf)", rank, recvs[rank])
		}
	}
}

func TestTreeBroadcastDelivers(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 13, 16, 17} {
		w := NewWorld(p, nil)
		err := w.Run(func(task *Task) error {
			value := -1
			if task.Rank() == 0 {
				value = 777
			}
			task.TreeBroadcast(4,
				func(dst int) (any, int) { return value, 8 },
				func(src int, payload any) {
					// The parent in the binomial tree is the rank with this
					// rank's lowest set bit cleared.
					if want := task.Rank() ^ (task.Rank() & -task.Rank()); src != want {
						panic(fmt.Sprintf("p=%d rank %d: parent %d, want %d", p, task.Rank(), src, want))
					}
					value = payload.(int)
				},
			)
			if value != 777 {
				return fmt.Errorf("p=%d rank %d: value %d after broadcast", p, task.Rank(), value)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBroadcastCharging pins TreeBroadcast's accounting: under a
// latency-only network model each message costs exactly Latency, so rank 0's
// clock reads (#children at rank 0)·Latency — ⌈log₂P⌉, not the P−1 a flat
// star from rank 0 would serialize — and interior tree ranks carry their own
// relay cost.
func TestBroadcastCharging(t *testing.T) {
	const p = 8
	const lat = time.Millisecond
	var mu sync.Mutex
	charged := map[int]time.Duration{}
	w := NewWorld(p, &NetworkModel{Latency: lat})
	err := w.Run(func(task *Task) error {
		task.TakeCommTime() // reset
		task.TreeBroadcast(5,
			func(dst int) (any, int) { return 1, 0 },
			func(src int, payload any) {},
		)
		mu.Lock()
		charged[task.Rank()] = task.TakeCommTime()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 fans out to 4, 2, 1; rank 4 relays to 6 and 5; ranks 2 and 6
	// relay once; odd ranks are leaves.
	want := map[int]time.Duration{0: 3 * lat, 2: lat, 4: 2 * lat, 6: lat}
	var total time.Duration
	for rank := 0; rank < p; rank++ {
		if charged[rank] != want[rank] {
			t.Errorf("rank %d charged %v, want %v", rank, charged[rank], want[rank])
		}
		total += charged[rank]
	}
	// Every non-root rank is sent to exactly once, whatever the schedule.
	if total != (p-1)*lat {
		t.Errorf("total charge %v, want %v", total, (p-1)*lat)
	}
}
