package core

import (
	"fmt"
	"math/rand"
	"testing"

	"metaprep/internal/obsv"
)

// TestUnionCounterOracle pins the two union–find counters to numbers the
// run computes independently. Rank 0 ends holding every component, so its
// unionfind/unions must equal Reads − Components; with one thread per task
// no union CAS can lose a race, so unionfind/union_races must read 0 on
// every rank. The fixture has low coverage over many genomes, so many
// components survive.
func TestUnionCounterOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	td := overlappingDataset(t, rng, smallOpts(), 40, 300, 400, 40)
	for _, shape := range []struct{ P, T int }{{1, 1}, {1, 4}, {2, 1}} {
		t.Run(fmt.Sprintf("P%d_T%d", shape.P, shape.T), func(t *testing.T) {
			cfg := Default(td.idx)
			cfg.Tasks = shape.P
			cfg.Threads = shape.T
			cfg.Passes = 2
			cfg.Obs = obsv.New()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Components < 50 {
				t.Fatalf("fixture has %d components, want many", res.Components)
			}
			unions := make(map[int]uint64)
			races := make(map[int]uint64)
			for _, c := range cfg.Obs.Counters() {
				switch c.Name {
				case "unionfind/unions":
					unions[c.Rank] = c.Value
				case "unionfind/union_races":
					races[c.Rank] = c.Value
				}
			}
			if len(unions) != shape.P || len(races) != shape.P {
				t.Fatalf("unions on %d ranks, races on %d, want %d each", len(unions), len(races), shape.P)
			}
			if want := uint64(res.Reads) - uint64(res.Components); unions[0] != want {
				t.Errorf("rank 0 unionfind/unions = %d, want Reads − Components = %d", unions[0], want)
			}
			if shape.T == 1 {
				for rank, r := range races {
					if r != 0 {
						t.Errorf("rank %d unionfind/union_races = %d at one thread, want 0", rank, r)
					}
				}
			}
		})
	}
}
