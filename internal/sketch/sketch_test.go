package sketch

import (
	"math/rand"
	"testing"
)

// TestCountMinConservative pins the count–min invariants: estimates never
// undercount, and with a roomy sketch they are exact.
func TestCountMinConservative(t *testing.T) {
	cm := NewCountMin(1<<16, 4)
	rng := rand.New(rand.NewSource(6))
	truth := make(map[uint64]int)
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	for i := 0; i < 20_000; i++ {
		k := keys[rng.Intn(len(keys))]
		truth[k]++
		h1, h2 := Hash(0, k)
		cm.Add(h1, h2)
	}
	for k, want := range truth {
		h1, h2 := Hash(0, k)
		got := int(cm.Estimate(h1, h2))
		capped := want
		if capped > 255 {
			capped = 255
		}
		if got < capped {
			t.Fatalf("key %x undercounted: got %d, true %d", k, got, want)
		}
		if got != capped {
			t.Fatalf("key %x overcounted in a roomy sketch: got %d, true %d", k, got, want)
		}
	}
}

// TestCountMinSaturates pins the 8-bit ceiling.
func TestCountMinSaturates(t *testing.T) {
	cm := NewCountMin(64, 2)
	h1, h2 := Hash(0, 42)
	for i := 0; i < 300; i++ {
		cm.Add(h1, h2)
	}
	if got := cm.Estimate(h1, h2); got != 255 {
		t.Fatalf("estimate %d after 300 adds, want saturation at 255", got)
	}
}

// TestHashStrideOdd pins the double-hashing precondition: h2 is always odd,
// so h1 + i·h2 cycles through distinct positions.
func TestHashStrideOdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		_, h2 := Hash(rng.Uint64(), rng.Uint64())
		if h2&1 == 0 {
			t.Fatalf("h2 %x is even", h2)
		}
	}
}
