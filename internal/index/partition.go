package index

import "fmt"

// Partition is a three-level balanced split of the m-mer bin space
// [0, 4^m): first into S pass ranges, each pass range into P task ranges,
// and each task range into T thread ranges. All ranges are contiguous, so a
// k-mer's owner at every level is found by binary search of the level's
// cuts (TaskCuts, ThreadCuts) for its prefix bin, and every range
// corresponds to a contiguous slice of the sorted tuple space (§3.1.1).
type Partition struct {
	S, P, T int
	// passCut has S+1 monotone bin boundaries; pass s owns bins
	// [passCut[s], passCut[s+1]).
	passCut []int
	// taskCut[s] has P+1 boundaries within pass s.
	taskCut [][]int
	// threadCut[s][p] has T+1 boundaries within (pass s, task p).
	threadCut [][][]int
}

// NewPartition splits the bin space described by the global histogram into
// S×P×T ranges, each level balanced by cumulative k-mer count. S, P and T
// must be ≥ 1.
func NewPartition(merHist []uint64, s, p, t int) (*Partition, error) {
	if s < 1 || p < 1 || t < 1 {
		return nil, fmt.Errorf("index: partition dims S=%d P=%d T=%d must be ≥ 1", s, p, t)
	}
	pt := &Partition{S: s, P: p, T: t}
	pt.passCut = splitBalanced(merHist, 0, len(merHist), s)
	pt.taskCut = make([][]int, s)
	pt.threadCut = make([][][]int, s)
	for si := 0; si < s; si++ {
		pt.taskCut[si] = splitBalanced(merHist, pt.passCut[si], pt.passCut[si+1], p)
		pt.threadCut[si] = make([][]int, p)
		for pi := 0; pi < p; pi++ {
			pt.threadCut[si][pi] = splitBalanced(merHist, pt.taskCut[si][pi], pt.taskCut[si][pi+1], t)
		}
	}
	return pt, nil
}

// splitBalanced cuts bins [lo, hi) into parts contiguous ranges whose
// weight sums are as even as a greedy left-to-right walk can make them.
// It returns parts+1 monotone boundaries starting at lo and ending at hi;
// ranges may be empty when there are fewer bins (or all weight is
// concentrated in fewer bins) than parts — empty ranges simply own no
// k-mers.
func splitBalanced(w []uint64, lo, hi, parts int) []int {
	cuts := make([]int, parts+1)
	cuts[0] = lo
	cuts[parts] = hi
	var total uint64
	for _, x := range w[lo:hi] {
		total += x
	}
	var acc uint64
	b := lo
	for part := 1; part < parts; part++ {
		// Advance until the accumulated weight reaches this part's share.
		target := total * uint64(part) / uint64(parts)
		for b < hi && acc < target {
			acc += w[b]
			b++
		}
		cuts[part] = b
	}
	return cuts
}

// PassRange returns the bin range [lo, hi) of pass s.
func (pt *Partition) PassRange(s int) (lo, hi int) {
	return pt.passCut[s], pt.passCut[s+1]
}

// TaskRange returns the bin range of task p within pass s.
func (pt *Partition) TaskRange(s, p int) (lo, hi int) {
	return pt.taskCut[s][p], pt.taskCut[s][p+1]
}

// RangeCount64 sums a 64-bit histogram over the bin range [lo, hi).
func RangeCount64(hist []uint64, lo, hi int) uint64 {
	var sum uint64
	for _, c := range hist[lo:hi] {
		sum += c
	}
	return sum
}

// TaskCuts returns the task boundary slice of pass s (P+1 entries), for
// callers that binary-search many bins at once.
func (pt *Partition) TaskCuts(s int) []int { return pt.taskCut[s] }

// ThreadCuts returns the thread boundary slice of (pass s, task p).
func (pt *Partition) ThreadCuts(s, p int) []int { return pt.threadCut[s][p] }
