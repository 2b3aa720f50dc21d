package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"metaprep/internal/index"
	"metaprep/internal/kmer"
	"metaprep/internal/obsv"
	"metaprep/internal/unionfind"
)

// passEdgeDataset indexes reads at m = 4, so a pass spans tens of bins and
// its edges fall between bins that both hold k-mers.
func passEdgeDataset(t *testing.T, k int) *testData {
	rng := rand.New(rand.NewSource(int64(41 + k)))
	return overlappingDataset(t, rng, index.Options{K: k, M: 4, ChunkSize: 4096}, 4, 1500, 300, 100)
}

// genPassCounts runs KmerGen alone, every round of every pass on every
// task of a P-task, T-thread plan, and returns each pass's kmergen/kmers
// summed over the tasks. It fails the test if a generated tuple's bin lies
// outside its pass or outside the task range of the region it was written
// to.
func genPassCounts(t *testing.T, idx *index.Index, P, T, S int) []uint64 {
	t.Helper()
	cfg := Default(idx)
	cfg.Tasks, cfg.Threads, cfg.Passes = P, T, S
	pl, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k, m := idx.Opts.K, idx.Opts.M
	counts := make([]uint64, S)
	for rank := 0; rank < P; rank++ {
		st := &taskState{p: pl, rank: rank, ctx: context.Background(), obs: obsv.New(),
			dsu: unionfind.New(int(idx.Reads))}
		if st.files, err = openInputs(idx); err != nil {
			t.Fatal(err)
		}
		st.allocChunkBufs()
		st.out = newTupleBuf(pl.bufTuples[rank], !pl.use64())
		kmers := st.counter("kmergen/kmers")
		for s := 0; s < S; s++ {
			passLo, passHi := pl.pt.PassRange(s)
			before := kmers.Value()
			fetchers := make([]*chunkFetcher, T)
			for th := range fetchers {
				fetchers[th] = newChunkFetcher(pl.passChunks(s, rank, th), idx, st.files,
					cfg.prefetchDepth(), st.chunkBufs[th], nil, rank, 0)
			}
			owner := pl.binOwners(s)
			for r := 0; r < pl.rounds[s]; r++ {
				gl := pl.genLayout(s, rank, r)
				if err := st.kmerGen(s, r, gl, owner, fetchers); err != nil {
					t.Fatalf("rank %d pass %d round %d: %v", rank, s, r, err)
				}
				for dst := 0; dst < P; dst++ {
					lo, hi := pl.pt.TaskRange(s, dst)
					for i := gl.dstOff[dst]; i < gl.dstOff[dst]+gl.dstCnt[dst]; i++ {
						km := kmer.Kmer128{Lo: st.out.lo[i]}
						if st.out.hi != nil {
							km.Hi = st.out.hi[i]
						}
						bin := int(kmer.Prefix128(km, k, m))
						if bin < passLo || bin >= passHi || bin < lo || bin >= hi {
							t.Fatalf("rank %d pass %d: tuple %d has bin %d, outside pass [%d,%d) or task %d's [%d,%d)",
								rank, s, i, bin, passLo, passHi, dst, lo, hi)
						}
					}
				}
			}
			for _, f := range fetchers {
				f.close()
			}
			counts[s] += kmers.Value() - before
		}
		st.closeFiles()
	}
	return counts
}

// passEdgeIndex copies idx with one count moved from the last bin of pass s
// to the first bin of pass s+1, in one chunk histogram and in MerHist, so
// that the moved count sits on a pass edge of the partition the copy
// itself plans. It returns the copy and the bin the count left.
func passEdgeIndex(t *testing.T, idx *index.Index, P, T, S, s int) (*index.Index, int) {
	t.Helper()
	for ci := range idx.Chunks {
		for a := 0; a+1 < len(idx.MerHist); a++ {
			if idx.Chunks[ci].Hist.Count(a) == 0 {
				continue
			}
			mod := *idx
			mod.MerHist = slices.Clone(idx.MerHist)
			mod.MerHist[a]--
			mod.MerHist[a+1]++
			pt, err := index.NewPartition(mod.MerHist, S, P, T)
			if err != nil {
				t.Fatal(err)
			}
			if _, hi := pt.PassRange(s); hi != a+1 {
				continue
			}
			mod.Chunks = slices.Clone(idx.Chunks)
			hist := make([]uint32, len(idx.MerHist))
			for b := range hist {
				hist[b] = idx.Chunks[ci].Hist.Count(b)
			}
			hist[a]--
			hist[a+1]++
			mod.Chunks[ci].Hist = index.NewChunkHist(hist)
			return &mod, a
		}
	}
	t.Fatalf("no chunk holds a k-mer in the last bin of pass %d", s)
	return nil, 0
}

// TestKmerGenPassEdgeBins pins KmerGen's pass selection to exactly the
// bins [passLo, passHi). Each pass generates the MerHist sum over its bin
// range, every tuple in a pass's bins and its owner's task range; and a
// count moved across a pass edge, from the last bin of pass s to the first
// of pass s+1, makes Run fail with KmerGen's stale-index error.
func TestKmerGenPassEdgeBins(t *testing.T) {
	const P, T = 2, 2
	for _, k := range []int{27, 55} {
		td := passEdgeDataset(t, k)
		for _, S := range []int{2, 3} {
			t.Run(fmt.Sprintf("k%d_S%d", k, S), func(t *testing.T) {
				pt, err := index.NewPartition(td.idx.MerHist, S, P, T)
				if err != nil {
					t.Fatal(err)
				}
				got := genPassCounts(t, td.idx, P, T, S)
				for s := 0; s < S; s++ {
					lo, hi := pt.PassRange(s)
					var want uint64
					for _, c := range td.idx.MerHist[lo:hi] {
						want += c
					}
					if got[s] != want {
						t.Errorf("pass %d (bins [%d,%d)): kmergen/kmers = %d, MerHist sum = %d", s, lo, hi, got[s], want)
					}
				}
				for s := 0; s+1 < S; s++ {
					idx, a := passEdgeIndex(t, td.idx, P, T, S, s)
					cfg := Default(idx)
					cfg.Tasks, cfg.Threads, cfg.Passes = P, T, S
					_, err := Run(cfg)
					if !errors.Is(err, errStaleIndex) || !strings.Contains(err.Error(), "produced more tuples than the index predicts") {
						t.Errorf("Run with a count moved from bin %d (end of pass %d) to bin %d: err = %v, want KmerGen's stale-index overflow",
							a, s, a+1, err)
					}
				}
			})
		}
	}
}
