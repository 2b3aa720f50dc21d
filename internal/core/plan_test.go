package core

import (
	"fmt"
	"testing"

	"metaprep/internal/index"
)

// TestPlanInRAMRounds pins the round rule of an in-RAM pass: every round
// but a task's last holds at least T chunks; a round over its slot cap (1/16
// of the task's receive buffer) holds exactly that chunk floor; and unless
// the floor applies, the two generation slots add at most 1/8 to the
// receive buffer. Small chunks fill rounds up to the cap; with large ones
// (about a dozen a task) a single chunk exceeds the cap, so the floor of T
// chunks decides every round.
func TestPlanInRAMRounds(t *testing.T) {
	for _, chunk := range []int64{600, 6000} {
		td := spillDataset(t, 97, index.Options{K: 11, M: 4, ChunkSize: chunk})
		testPlanInRAMRounds(t, fmt.Sprintf("chunk%d", chunk), td)
	}
}

func testPlanInRAMRounds(t *testing.T, name string, td *testData) {
	for _, tasks := range []int{1, 2, 3} {
		for _, threads := range []int{1, 2, 3} {
			for _, passes := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/P%d_T%d_S%d", name, tasks, threads, passes), func(t *testing.T) {
					cfg := Default(td.idx)
					cfg.Tasks, cfg.Threads, cfg.Passes = tasks, threads, passes
					pl, err := newPlan(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if pl.spill {
						t.Fatal("plan spills without a budget")
					}
					if pl.rounds[0] < 2 {
						t.Fatalf("pass 0 runs %d round(s): the dataset is too small for the test to mean anything", pl.rounds[0])
					}
					for rank := 0; rank < tasks; rank++ {
						recv, slots := pl.recvTuples[rank], pl.slotTuples[rank]
						floor := false
						for s := 0; s < passes; s++ {
							lo, hi := pl.pt.PassRange(s)
							cuts := pl.roundCuts[s][rank]
							for r := 0; r+1 < len(cuts); r++ {
								chunks := pl.taskChunks[rank][cuts[r]:cuts[r+1]]
								if len(chunks) < threads && cuts[r+1] < len(pl.taskChunks[rank]) {
									t.Fatalf("pass %d rank %d round %d holds %d chunks, want >= T = %d", s, rank, r, len(chunks), threads)
								}
								var gen uint64
								for _, ci := range chunks {
									gen += pl.idx.Chunks[ci].Hist.RangeCount(lo, hi)
								}
								if gen > slots[r%2] {
									t.Fatalf("pass %d rank %d round %d generates %d tuples into a %d-tuple slot", s, rank, r, gen, slots[r%2])
								}
								if gen > recv/16 {
									if len(chunks) > threads {
										t.Fatalf("pass %d rank %d round %d: %d chunks, %d tuples over the %d-tuple cap", s, rank, r, len(chunks), gen, recv/16)
									}
									floor = true
								}
							}
						}
						if !floor && slots[0]+slots[1] > recv/8 {
							t.Errorf("rank %d: slots %d + %d exceed 1/8 of the %d-tuple receive buffer", rank, slots[0], slots[1], recv)
						}
						if pl.bufTuples[rank] != slots[0]+slots[1] {
							t.Errorf("rank %d: kmerOut holds %d tuples, the slots %d", rank, pl.bufTuples[rank], slots[0]+slots[1])
						}
					}
				})
			}
		}
	}
}
