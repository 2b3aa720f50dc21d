package core

import (
	"math/rand"
	"path/filepath"
	"testing"

	"metaprep/internal/index"
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

// TestTuplePoolPoisonedBuffers runs every memory shape on buffers full of
// garbage: a first pooled run seeds the pool with a buffer of every size
// class the shape requests, every pooled buffer is then filled with
// all-ones keys and 0xFFFFFFFF values, and a second run must take every
// buffer from the pool and still match a pool-less run — labels, edges,
// tuples and the frequency spectrum, and the .mpa kmers CRC.
func TestTuplePoolPoisonedBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	td := overlappingDataset(t, rng, index.Options{K: 11, M: 4, ChunkSize: 600}, 4, 4000, 1500, 50)
	// The spilling shape runs one task: two tasks hold six run builders of
	// one class at once, more than the pool retains per class.
	for _, shape := range []struct {
		name           string
		tasks, threads int
		budget         int64
	}{
		{"inram", 2, 2, 0},
		{"spill", 1, 2, MinSpillBudgetBytes},
	} {
		t.Run(shape.name, func(t *testing.T) {
			dir := t.TempDir()
			run := func(name string, pool *TuplePool) (*Result, string) {
				cfg := Default(td.idx)
				cfg.Tasks, cfg.Threads, cfg.Passes = shape.tasks, shape.threads, 2
				cfg.SpillBudgetBytes = shape.budget
				cfg.Pool = pool
				cfg.ArtifactOut = filepath.Join(dir, name+".mpa")
				if shape.budget > 0 {
					requireSpill(t, cfg)
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res, cfg.ArtifactOut
			}
			want, wantMPA := run("ref", nil)

			pool := NewTuplePool()
			run("seed", pool)
			poisoned := 0
			for _, classes := range pool.free {
				for _, bufs := range classes {
					for _, b := range bufs {
						lo, val := b.lo[:cap(b.lo)], b.val[:cap(b.val)]
						for i := range lo {
							lo[i], val[i] = ^uint64(0), 0xFFFFFFFF
						}
						if b.hi != nil {
							for i := range b.hi[:cap(b.hi)] {
								b.hi[i] = ^uint64(0)
							}
						}
						poisoned++
					}
				}
			}
			if poisoned == 0 {
				t.Fatal("the seeding run left no buffers in the pool")
			}
			misses := pool.Misses()
			got, gotMPA := run("poisoned", pool)
			if pool.Misses() != misses {
				t.Fatalf("%d acquisitions missed the pool: not every buffer was poisoned", pool.Misses()-misses)
			}
			assertSameResult(t, want, got)
			if a, b := kmersCRC(t, wantMPA), kmersCRC(t, gotMPA); a != b {
				t.Errorf("kmers CRC %08x on poisoned buffers, %08x pool-less", b, a)
			}
		})
	}
}
