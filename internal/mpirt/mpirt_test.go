package mpirt

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"metaprep/internal/obsv"
)

func TestSendRecv(t *testing.T) {
	w := NewWorld(2, nil)
	err := w.Run(func(task *Task) error {
		if task.Rank() == 0 {
			task.Send(1, 7, "hello", 5)
			if got := task.Recv(1, 8).(int); got != 42 {
				return fmt.Errorf("rank 0 got %d", got)
			}
		} else {
			if got := task.Recv(0, 7).(string); got != "hello" {
				return fmt.Errorf("rank 1 got %q", got)
			}
			task.Send(0, 8, 42, 8)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	w := NewWorld(3, nil)
	err := w.Run(func(task *Task) error {
		if task.Rank() == 2 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestBarrier(t *testing.T) {
	const p = 8
	w := NewWorld(p, nil)
	var phase int32
	err := w.Run(func(task *Task) error {
		for round := int32(1); round <= 3; round++ {
			atomic.AddInt32(&phase, 1)
			task.Barrier()
			if got := atomic.LoadInt32(&phase); got < round*p {
				return fmt.Errorf("rank %d: phase %d after barrier round %d", task.Rank(), got, round)
			}
			task.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAll(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8, 13} {
		w := NewWorld(p, nil)
		// Each rank r sends value r*100+dst to dst; verify everyone receives
		// the right value from every src.
		err := w.Run(func(task *Task) error {
			got := make([]int, p)
			task.AllToAll(1,
				func(dst int) (any, int) { return task.Rank()*100 + dst, 8 },
				func(src int, payload any) { got[src] = payload.(int) },
			)
			for src := 0; src < p; src++ {
				if got[src] != src*100+task.Rank() {
					return fmt.Errorf("p=%d rank %d: from %d got %d", p, task.Rank(), src, got[src])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllToAllRepeated(t *testing.T) {
	// Multi-pass pipelines run several all-to-alls back to back; FIFO
	// channels must keep passes ordered even without barriers.
	const p, passes = 4, 5
	w := NewWorld(p, nil)
	err := w.Run(func(task *Task) error {
		for pass := 0; pass < passes; pass++ {
			task.AllToAll(pass,
				func(dst int) (any, int) { return pass*1000 + task.Rank(), 8 },
				func(src int, payload any) {
					if got := payload.(int); got != pass*1000+src {
						panic(fmt.Sprintf("pass %d rank %d: from %d got %d", pass, task.Rank(), src, got))
					}
				},
			)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTreeMerge(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 8, 16, 17} {
		w := NewWorld(p, nil)
		// Each rank holds the singleton set {rank}; the merged state at rank
		// 0 must be the full set.
		err := w.Run(func(task *Task) error {
			sum := task.Rank()
			root := task.TreeMerge(2,
				func(dst int) (any, int) { return sum, 8 },
				func(src int, payload any) { sum += payload.(int) },
			)
			if root != (task.Rank() == 0) {
				return fmt.Errorf("p=%d rank %d: root=%v", p, task.Rank(), root)
			}
			if root && sum != p*(p-1)/2 {
				return fmt.Errorf("p=%d: merged sum %d, want %d", p, sum, p*(p-1)/2)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestNetworkModelCost(t *testing.T) {
	m := &NetworkModel{Latency: time.Microsecond, BandwidthBytesPerSec: 1e9}
	if got := m.Cost(0); got != time.Microsecond {
		t.Errorf("Cost(0) = %v", got)
	}
	// 1 GB at 1 GB/s = 1 s (+1 µs latency).
	if got := m.Cost(1e9); got != time.Second+time.Microsecond {
		t.Errorf("Cost(1e9) = %v", got)
	}
	var nilModel *NetworkModel
	if nilModel.Cost(100) != 0 {
		t.Error("nil model should cost 0")
	}
}

func TestCommTimeAccounting(t *testing.T) {
	model := &NetworkModel{Latency: time.Millisecond, BandwidthBytesPerSec: 1e6}
	w := NewWorld(2, model)
	err := w.Run(func(task *Task) error {
		if task.Rank() == 0 {
			task.Send(1, 1, nil, 1000) // 1 ms latency + 1 ms transfer
			task.Send(0, 1, nil, 1000) // self-send: free
			task.Recv(0, 1)
			if d := task.TakeCommTime(); d != 2*time.Millisecond {
				return fmt.Errorf("comm time = %v, want 2ms", d)
			}
			if d := task.TakeCommTime(); d != 0 {
				return fmt.Errorf("comm time after take = %v", d)
			}
			if task.BytesSent() != 1000 {
				return fmt.Errorf("bytes sent = %d", task.BytesSent())
			}
		} else {
			task.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEdisonNetwork(t *testing.T) {
	m := EdisonNetwork()
	// 8 GB at 8 GB/s ≈ 1 s.
	got := m.Cost(8e9)
	if got < 990*time.Millisecond || got > 1100*time.Millisecond {
		t.Errorf("Edison Cost(8GB) = %v, want ≈1 s", got)
	}
}

func TestRecvTagMismatchPanics(t *testing.T) {
	w := NewWorld(2, nil)
	done := make(chan bool, 1)
	_ = w.Run(func(task *Task) error {
		if task.Rank() == 0 {
			task.Send(1, 1, nil, 0)
			return nil
		}
		defer func() {
			done <- recover() != nil
		}()
		task.Recv(0, 99)
		return nil
	})
	if !<-done {
		t.Error("tag mismatch did not panic")
	}
}

func BenchmarkAllToAll8(b *testing.B) {
	w := NewWorld(8, nil)
	payload := make([]uint64, 1024)
	b.ResetTimer()
	_ = w.Run(func(task *Task) error {
		for i := 0; i < b.N; i++ {
			task.AllToAll(i,
				func(dst int) (any, int) { return payload, len(payload) * 8 },
				func(src int, p any) { _ = p.([]uint64) },
			)
		}
		return nil
	})
}

func TestRunAbortsBlockedPeersOnFailure(t *testing.T) {
	// Rank 1 fails immediately; rank 0 would block forever in Recv without
	// abort propagation. Run must return rank 1's error promptly.
	w := NewWorld(3, nil)
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(task *Task) error {
			switch task.Rank() {
			case 1:
				return fmt.Errorf("rank 1 exploded")
			case 0:
				task.Recv(2, 9) // never sent
			default:
				task.Barrier() // never completed
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err == nil || err.Error() != "rank 1 exploded" {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run deadlocked on a failed peer")
	}
}

func TestRunAbortReportsPeerFailure(t *testing.T) {
	// When the only error is the abort itself, ErrPeerFailed surfaces.
	w := NewWorld(2, nil)
	err := w.Run(func(task *Task) error {
		if task.Rank() == 0 {
			return fmt.Errorf("root cause")
		}
		task.Recv(0, 1)
		return nil
	})
	if err == nil || err.Error() != "root cause" {
		t.Fatalf("err = %v", err)
	}
}

// TestAllToAllTracedAllocs pins a traced AllToAll to the allocations of
// its point-to-point messages alone: the per-stage volume counters are
// resolved once per task, so a call formats no counter names. The ring
// collector holds the spans in fixed storage, so the two measurements
// differ only by what AllToAll itself allocates.
func TestAllToAllTracedAllocs(t *testing.T) {
	w := NewWorld(1, nil)
	obs := obsv.NewRing(64)
	w.SetCollector(obs)
	payload := any(&struct{}{})
	err := w.Run(func(task *Task) error {
		send := func(int) (any, int) { return payload, 1000 }
		recv := func(int, any) {}
		task.AllToAll(1, send, recv) // resolves the stage counters
		collective := testing.AllocsPerRun(50, func() { task.AllToAll(1, send, recv) })
		p2p := testing.AllocsPerRun(50, func() {
			task.Send(0, 1, payload, 1000)
			task.Recv(0, 1)
		})
		if collective != p2p {
			return fmt.Errorf("traced AllToAll: %.0f allocations per call, its messages alone %.0f", collective, p2p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// One priming call, then AllocsPerRun's warm-up call and 50 runs.
	if got := obs.Counter(0, "alltoall/stage000/bytes").Value(); got != 52*1000 {
		t.Errorf("stage counter = %d, want %d", got, 52*1000)
	}
}
