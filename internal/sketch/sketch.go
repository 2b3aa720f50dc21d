// Package sketch holds the count–min sketch digital normalization uses and
// the k-mer hash family that drives it.
//
// The sketch derives its probe positions from a single (h1, h2) pair per
// key by double hashing (row i probes at h1 + i·h2), so a k-mer is mixed
// once no matter how many rows consult it. Range reduction uses the
// multiply-shift trick (the high word of h·N) instead of a modulo, keeping
// the per-probe cost to a multiply.
package sketch

import "math/bits"

// splitmix64 is the finalization mix of the SplitMix64 generator — a cheap,
// well-distributed 64→64 bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Hash maps a canonical k-mer, packed as (hi, lo) — hi is 0 on the 64-bit
// key path — to the (h1, h2) pair every sketch in this package probes with.
// h2 is forced odd so the double-hashing stride h1 + i·h2 walks distinct
// positions for every row count.
func Hash(hi, lo uint64) (h1, h2 uint64) {
	h1 = splitmix64(lo ^ splitmix64(hi))
	h2 = splitmix64(h1) | 1
	return h1, h2
}

// reduce maps a 64-bit hash onto [0, n) without a modulo: the high word of
// the 128-bit product h·n is uniform over the range when h is.
func reduce(h, n uint64) uint64 {
	q, _ := bits.Mul64(h, n)
	return q
}
