// Package kmer implements compact 2-bit DNA k-mer representations and the
// k-mer enumeration kernels used by the METAPREP preprocessing pipeline.
//
// Two fixed-width representations are provided:
//
//   - Kmer64 packs k ≤ 31 bases into a uint64 (the paper's default path,
//     12-byte (k-mer, read) tuples with a 32-bit read ID), and
//   - Kmer128 packs k ≤ 63 bases into two uint64 words (the paper's §4.4
//     extension, 20-byte tuples).
//
// In both, the first base of the k-mer occupies the most significant 2-bit
// group of the low 2k bits, so lexicographic order on the base string equals
// numeric order on the packed value. That property is what lets the pipeline
// radix sort packed k-mers directly and lets an m-mer prefix of the k-mer act
// as a histogram bin (package index) and as an owner-task selector.
//
// Reads become keys through one scalar roll per width, in block form:
// Roller.Next64 (k ≤ 31) and Roller.Next128 fill a block of consecutive
// windows' canonical keys at a time. KmerGen and IndexCreate loop over the
// blocks; the query paths and other per-key callers use ForEachKey, a loop
// over them, and CanonicalKey for one k-mer string. Both derive the
// representation from k and yield a Kmer128 whose Hi word is zero for
// k ≤ 31.
package kmer

import (
	"errors"
	"fmt"
)

// Base codes. DNA bases are encoded in 2 bits such that complementing a base
// is bitwise NOT of the 2-bit group: A(00)↔T(11) and C(01)↔G(10).
const (
	BaseA = 0
	BaseC = 1
	BaseG = 2
	BaseT = 3
)

// MaxK64 and MaxK128 are the largest k-mer lengths representable by Kmer64
// and Kmer128 respectively.
const (
	MaxK64  = 31
	MaxK128 = 63
)

// invalidBase marks a byte that does not encode A, C, G or T (e.g. 'N').
const invalidBase = 0xFF

// baseCode maps an ASCII byte to its 2-bit base code, or invalidBase.
var baseCode [256]uint8

// baseChar maps a 2-bit base code back to its upper-case ASCII letter.
var baseChar = [4]byte{'A', 'C', 'G', 'T'}

func init() {
	for i := range baseCode {
		baseCode[i] = invalidBase
	}
	baseCode['A'], baseCode['a'] = BaseA, BaseA
	baseCode['C'], baseCode['c'] = BaseC, BaseC
	baseCode['G'], baseCode['g'] = BaseG, BaseG
	baseCode['T'], baseCode['t'] = BaseT, BaseT
}

// CodeOf returns the 2-bit code of an ASCII base and whether the byte is a
// valid base. Lower-case bases are accepted; every other byte (including
// 'N') is invalid.
func CodeOf(b byte) (uint8, bool) {
	c := baseCode[b]
	return c, c != invalidBase
}

// CharOf returns the upper-case ASCII letter of a 2-bit base code.
// The code must be in [0, 3].
func CharOf(code uint8) byte { return baseChar[code&3] }

// ErrInvalidK reports a k outside the supported range of a representation.
var ErrInvalidK = errors.New("kmer: k out of range")

// CheckK64 validates k for the 64-bit representation.
func CheckK64(k int) error {
	if k < 1 || k > MaxK64 {
		return fmt.Errorf("%w: k=%d, want 1..%d", ErrInvalidK, k, MaxK64)
	}
	return nil
}

// CheckK128 validates k for the 128-bit representation.
func CheckK128(k int) error {
	if k < 1 || k > MaxK128 {
		return fmt.Errorf("%w: k=%d, want 1..%d", ErrInvalidK, k, MaxK128)
	}
	return nil
}
