package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"metaprep/internal/kmc"
	"metaprep/internal/kmer"
)

func TestRunCountMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	td := overlappingDataset(t, rng, smallOpts(), 3, 300, 150, 40)
	want := map[uint64]uint32{}
	for _, seq := range td.seqs {
		kmer.ForEach64(seq, 11, func(_ int, m kmer.Kmer64) { want[uint64(m)]++ })
	}
	for _, dims := range [][3]int{{1, 1, 1}, {3, 2, 2}, {2, 2, 4}} {
		cfg := Default(td.idx)
		cfg.Tasks, cfg.Threads, cfg.Passes = dims[0], dims[1], dims[2]
		res, err := RunCount(cfg)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if res.Len() != len(want) {
			t.Fatalf("%v: %d distinct k-mers, want %d", dims, res.Len(), len(want))
		}
		var total uint64
		for i, km := range res.KmersLo {
			if i > 0 && res.KmersLo[i-1] >= km {
				t.Fatalf("%v: output not strictly sorted at %d", dims, i)
			}
			if want[km] != res.Counts[i] {
				t.Fatalf("%v: k-mer %s count %d, want %d", dims,
					kmer.String64(kmer.Kmer64(km), 11), res.Counts[i], want[km])
			}
			total += uint64(res.Counts[i])
		}
		if total != res.Tuples || total != td.idx.TotalKmers {
			t.Fatalf("%v: counted %d instances, tuples %d, index %d",
				dims, total, res.Tuples, td.idx.TotalKmers)
		}
		if res.KmersHi != nil {
			t.Fatalf("%v: KmersHi set for k=11", dims)
		}
	}
}

func TestRunCountGet(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	td := overlappingDataset(t, rng, smallOpts(), 2, 250, 60, 35)
	res, err := RunCount(Default(td.idx))
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint32{}
	for _, seq := range td.seqs {
		kmer.ForEach64(seq, 11, func(_ int, m kmer.Kmer64) { want[uint64(m)]++ })
	}
	for km, c := range want {
		if res.Get(km) != c {
			t.Fatalf("Get(%d) = %d, want %d", km, res.Get(km), c)
		}
	}
	if res.Get(^uint64(0)) != 0 {
		t.Error("absent k-mer count != 0")
	}
}

func TestRunCount128(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	opts := smallOpts()
	opts.K = 35
	td := overlappingDataset(t, rng, opts, 3, 400, 100, 60)
	res, err := RunCount(Default(td.idx))
	if err != nil {
		t.Fatal(err)
	}
	want := map[kmer.Kmer128]uint32{}
	for _, seq := range td.seqs {
		kmer.ForEach128(seq, 35, func(_ int, m kmer.Kmer128) { want[m]++ })
	}
	if res.Len() != len(want) {
		t.Fatalf("distinct: %d vs %d", res.Len(), len(want))
	}
	if len(res.KmersHi) != res.Len() {
		t.Fatalf("KmersHi length %d", len(res.KmersHi))
	}
	for i := range res.KmersLo {
		km := kmer.Kmer128{Hi: res.KmersHi[i], Lo: res.KmersLo[i]}
		if want[km] != res.Counts[i] {
			t.Fatalf("k-mer %d count %d, want %d", i, res.Counts[i], want[km])
		}
	}
}

// TestRunCountMatchesKMC checks the distributed counter k-mer by k-mer
// against internal/kmc, the independent KMC 2-style counter the paper's
// Fig. 9 compares KmerGen with, over every P × T × S shape, in RAM and
// under the minimum spill budget (every shape's plan spills on this
// dataset, so the counter's groups come out of the run merge).
func TestRunCountMatchesKMC(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	td := overlappingDataset(t, rng, smallOpts(), 4, 600, 2000, 50)
	opts := kmc.Defaults()
	opts.K = td.idx.Opts.K
	want, _, err := kmc.CountFiles(td.paths, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, MinSpillBudgetBytes} {
		for _, tasks := range []int{1, 2, 4} {
			for _, threads := range []int{1, 2} {
				for _, passes := range []int{1, 3} {
					shape := fmt.Sprintf("P%d/T%d/S%d/budget%d", tasks, threads, passes, budget)
					cfg := Default(td.idx)
					cfg.Tasks, cfg.Threads, cfg.Passes = tasks, threads, passes
					if budget > 0 {
						cfg.SpillBudgetBytes = budget
						requireSpill(t, cfg)
					}
					got, err := RunCount(cfg)
					if err != nil {
						t.Fatalf("%s: %v", shape, err)
					}
					if got.Len() != want.Len() {
						t.Fatalf("%s: %d distinct k-mers, kmc %d", shape, got.Len(), want.Len())
					}
					for i := range want.Kmers {
						if got.KmersLo[i] != want.Kmers[i] || got.Counts[i] != want.Counts[i] {
							t.Fatalf("%s: entry %d is (%x, %d), kmc (%x, %d)", shape, i,
								got.KmersLo[i], got.Counts[i], want.Kmers[i], want.Counts[i])
						}
					}
				}
			}
		}
	}
}

// TestRunCountRejectsSpillBudget: a spilling budget is a working counter
// shape (TestRunCountMatchesKMC), but a budget that Config.Validate refuses
// — negative, or below MinSpillBudgetBytes — is still a typed config error
// for SpillBudgetBytes from RunCount, with no result and no panic.
func TestRunCountRejectsSpillBudget(t *testing.T) {
	td := spillDataset(t, 91, smallOpts())
	for _, budget := range []int64{-1, 1, MinSpillBudgetBytes - 1} {
		cfg := Default(td.idx)
		cfg.Tasks = 2
		cfg.SpillBudgetBytes = budget
		res, err := RunCount(cfg)
		if res != nil || !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("budget %d: res=%v err=%v, want ErrInvalidConfig", budget, res != nil, err)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != "SpillBudgetBytes" {
			t.Fatalf("budget %d: err = %v, want a *ConfigError for SpillBudgetBytes", budget, err)
		}
	}
}
