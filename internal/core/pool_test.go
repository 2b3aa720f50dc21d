package core

import (
	"math/rand"
	"testing"
)

// TestTuplePoolReuse checks the pool recycles buffers by size class and
// counts hits and misses.
func TestTuplePoolReuse(t *testing.T) {
	p := NewTuplePool()
	a := p.get(1000, false)
	if len(a.lo) != 1000 || len(a.val) != 1000 || a.hi != nil {
		t.Fatalf("get(1000, narrow): lo=%d val=%d wide=%v", len(a.lo), len(a.val), a.wide())
	}
	p.put(a)
	// Same class (next pow2 of 1000 is 1024): must be a hit, resliced.
	b := p.get(600, false)
	if &b.lo[0] != &a.lo[0] {
		t.Errorf("get(600) did not reuse the pooled 1024-class buffer")
	}
	if len(b.lo) != 600 {
		t.Errorf("reused buffer len = %d, want 600", len(b.lo))
	}
	// Different class: a miss.
	c := p.get(5000, false)
	if cap(c.lo) != 8192 {
		t.Errorf("class capacity = %d, want 8192", cap(c.lo))
	}
	// Wide and narrow classes are separate.
	w := p.get(600, true)
	if w.hi == nil || &w.lo[0] == &b.lo[0] {
		t.Errorf("wide get aliased a narrow buffer")
	}
	if hits, misses := p.Hits(), p.Misses(); hits != 1 || misses != 3 {
		t.Errorf("hits/misses = %d/%d, want 1/3", hits, misses)
	}
}

// TestTuplePoolRunParity runs the full pipeline twice against one pool and
// checks the second (buffer-recycling) run is bit-identical to a pool-free
// run — stale contents from the first job must never leak into results.
func TestTuplePoolRunParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	td := overlappingDataset(t, rng, smallOpts(), 3, 400, 200, 50)
	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.Threads = 2
	cfg.Passes = 2
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewTuplePool()
	pcfg := cfg
	pcfg.Pool = pool
	if _, err := Run(pcfg); err != nil {
		t.Fatal(err)
	}
	if pool.Misses() == 0 {
		t.Fatalf("first pooled run recorded no misses")
	}
	got, err := Run(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Hits() == 0 {
		t.Fatalf("second pooled run recorded no hits: buffers were not reused")
	}
	assertSameResult(t, want, got)
}
