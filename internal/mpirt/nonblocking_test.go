package mpirt

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestISendBeyondChannelCapacity posts far more nonblocking sends than the
// per-pair channel buffer holds before the receiver drains any, checking
// ISend never blocks the caller and per-pair FIFO order is preserved.
func TestISendBeyondChannelCapacity(t *testing.T) {
	const n = 100 // channel cap is 8
	w := NewWorld(2, nil)
	err := w.Run(func(task *Task) error {
		switch task.Rank() {
		case 0:
			reqs := make([]*Request, 0, n)
			for i := 0; i < n; i++ {
				reqs = append(reqs, task.ISend(1, 7, i, 4))
			}
			task.WaitAll(reqs)
		case 1:
			// Receive with the blocking primitive: interleaving blocking
			// and request-based calls on the same pair must stay FIFO.
			for i := 0; i < n; i++ {
				got := task.Recv(0, 7).(int)
				if got != i {
					t.Errorf("message %d arrived out of order: got %d", i, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIRecvMatchesISend pairs the two nonblocking primitives and checks
// payloads, tags, and the self-send path.
func TestIRecvMatchesISend(t *testing.T) {
	w := NewWorld(3, nil)
	err := w.Run(func(task *Task) error {
		p := task.Size()
		for i := 0; i < p; i++ {
			dst := (task.Rank() + i) % p
			src := (task.Rank() - i + p) % p
			sr := task.ISend(dst, 40+i, task.Rank()*100+dst, 8)
			rr := task.IRecv(src, 40+i)
			got := task.Wait(rr).(int)
			if want := src*100 + task.Rank(); got != want {
				t.Errorf("rank %d stage %d: payload = %d, want %d", task.Rank(), i, got, want)
			}
			task.Wait(sr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitChargesCommTimeAtCompletion checks the NetworkModel charge lands
// on the communication clock at Wait, not at the ISend call, and that
// double-waiting a request charges exactly once.
func TestWaitChargesCommTimeAtCompletion(t *testing.T) {
	model := &NetworkModel{Latency: time.Millisecond, BandwidthBytesPerSec: 1e6}
	w := NewWorld(2, model)
	err := w.Run(func(task *Task) error {
		if task.Rank() == 0 {
			r := task.ISend(1, 3, "x", 2000) // 1ms + 2ms serialization
			if d := task.TakeCommTime(); d != 0 {
				t.Errorf("commTime charged at ISend: %v, want 0", d)
			}
			task.Wait(r)
			want := model.Cost(2000)
			if d := task.TakeCommTime(); d != want {
				t.Errorf("commTime after Wait = %v, want %v", d, want)
			}
			task.Wait(r) // idempotent
			if d := task.TakeCommTime(); d != 0 {
				t.Errorf("double Wait charged again: %v", d)
			}
			if task.BytesSent() != 2000 {
				t.Errorf("BytesSent = %d, want 2000", task.BytesSent())
			}
			// Self-sends are free.
			sr := task.ISend(0, 4, "y", 500)
			task.Wait(task.IRecv(0, 4))
			task.Wait(sr)
			if d := task.TakeCommTime(); d != 0 {
				t.Errorf("self-send charged commTime %v", d)
			}
		} else {
			task.Recv(0, 3)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCancelWhileInflight cancels the world while rank 0 has nonblocking
// sends queued behind a full channel (receiver never drains) and a Wait
// blocked on one of them. Every rank must wake and RunContext must report
// the cancellation; run under -race this exercises the flusher abort path.
func TestCancelWhileInflight(t *testing.T) {
	w := NewWorld(2, nil)
	ctx, cancel := context.WithCancel(context.Background())
	blocked := make(chan struct{})
	go func() {
		<-blocked
		cancel()
	}()
	var once sync.Once
	err := w.RunContext(ctx, func(task *Task) error {
		if task.Rank() == 0 {
			reqs := make([]*Request, 0, 64)
			for i := 0; i < 64; i++ { // far beyond channel cap; rank 1 never receives
				reqs = append(reqs, task.ISend(1, 9, i, 8))
			}
			once.Do(func() { close(blocked) })
			task.WaitAll(reqs) // must wake via abort, not deadlock
			t.Error("WaitAll returned despite receiver never draining")
		} else {
			task.Barrier() // rank 0 never arrives: idle until the abort propagates
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext: err = %v, want context.Canceled", err)
	}
}

// TestWorldAbortWakesWaiters checks a peer error (rather than ctx cancel)
// wakes both a Wait blocked on an undrained ISend and a Wait blocked on an
// IRecv that will never be satisfied: Run returns the root cause instead of
// hanging, and neither Wait returns normally.
func TestWorldAbortWakesWaiters(t *testing.T) {
	boom := errors.New("rank 2 failed")
	w := NewWorld(3, nil)
	err := w.Run(func(task *Task) error {
		switch task.Rank() {
		case 0:
			// Sends beyond capacity to a rank that never receives.
			reqs := make([]*Request, 0, 32)
			for i := 0; i < 32; i++ {
				reqs = append(reqs, task.ISend(1, 5, i, 8))
			}
			task.WaitAll(reqs)
			t.Error("WaitAll returned despite receiver never draining")
		case 1:
			task.Wait(task.IRecv(2, 77)) // rank 2 errors instead of sending
			t.Error("Wait on an unsatisfiable IRecv returned")
		case 2:
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run: err = %v, want %v", err, boom)
	}
}
