package kmer

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// revCompString computes the reverse complement of an ASCII DNA string the
// slow, obviously-correct way.
func revCompString(s string) string {
	comp := map[byte]byte{'A': 'T', 'C': 'G', 'G': 'C', 'T': 'A'}
	b := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		b[len(s)-1-i] = comp[s[i]]
	}
	return string(b)
}

// randSeq returns a random ACGT string of length n.
func randSeq(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = baseChar[rng.Intn(4)]
	}
	return b
}

func TestCodeOf(t *testing.T) {
	for _, c := range []struct {
		b    byte
		code uint8
		ok   bool
	}{
		{'A', BaseA, true}, {'C', BaseC, true}, {'G', BaseG, true}, {'T', BaseT, true},
		{'a', BaseA, true}, {'c', BaseC, true}, {'g', BaseG, true}, {'t', BaseT, true},
		{'N', 0, false}, {'n', 0, false}, {'X', 0, false}, {0, 0, false}, {'@', 0, false},
	} {
		code, ok := CodeOf(c.b)
		if ok != c.ok || (ok && code != c.code) {
			t.Errorf("CodeOf(%q) = %d,%v want %d,%v", c.b, code, ok, c.code, c.ok)
		}
	}
}

func TestEncode64RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 1; k <= MaxK64; k++ {
		seq := randSeq(rng, k)
		m, ok := Encode64(seq)
		if !ok {
			t.Fatalf("Encode64(%q) failed", seq)
		}
		if got := String64(m, k); got != string(seq) {
			t.Errorf("k=%d round trip: got %q want %q", k, got, seq)
		}
	}
}

func TestEncode64Rejects(t *testing.T) {
	if _, ok := Encode64([]byte("ACGN")); ok {
		t.Error("Encode64 accepted N")
	}
	if _, ok := Encode64(nil); ok {
		t.Error("Encode64 accepted empty")
	}
	if _, ok := Encode64([]byte(strings.Repeat("A", 32))); ok {
		t.Error("Encode64 accepted k=32")
	}
	for _, c := range []struct {
		s string
		k int
	}{
		{"ACGN", 4},
		{strings.Repeat("A", 39) + "N", 40},
		{"acgn", 4},
		{"ACG", 4},
		{"ACGTA", 4},
		{"", 0},
		{strings.Repeat("A", 64), 64},
	} {
		if _, ok := CanonicalKey([]byte(c.s), c.k); ok {
			t.Errorf("CanonicalKey(%q, %d) accepted", c.s, c.k)
		}
	}
}

func TestCanonicalKeyMatchesForEachKey(t *testing.T) {
	// On a length-k string CanonicalKey equals the one key ForEachKey
	// yields, lower case encodes like upper case, and a k-mer and its
	// reverse complement share the key.
	rng := rand.New(rand.NewSource(16))
	for k := 1; k <= MaxK128; k++ {
		seq := randSeq(rng, k)
		got, ok := CanonicalKey(seq, k)
		if !ok {
			t.Fatalf("k=%d: CanonicalKey(%q) rejected", k, seq)
		}
		n := 0
		ForEachKey(seq, k, func(_ int, km Kmer128) {
			n++
			if !km.Equal(got) {
				t.Errorf("k=%d: ForEachKey %+v, CanonicalKey %+v", k, km, got)
			}
		})
		if n != 1 {
			t.Errorf("k=%d: ForEachKey yielded %d keys for a length-k string", k, n)
		}
		if lower, ok := CanonicalKey([]byte(strings.ToLower(string(seq))), k); !ok || !lower.Equal(got) {
			t.Errorf("k=%d: lower case %+v,%v, upper %+v", k, lower, ok, got)
		}
		if rc, ok := CanonicalKey([]byte(revCompString(string(seq))), k); !ok || !rc.Equal(got) {
			t.Errorf("k=%d: reverse complement %+v,%v, forward %+v", k, rc, ok, got)
		}
		if k <= MaxK64 && got.Hi != 0 {
			t.Errorf("k=%d: Hi = %#x, want 0", k, got.Hi)
		}
	}
}

func TestEncode64Order(t *testing.T) {
	// Numeric order must equal lexicographic order of the base strings.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(MaxK64)
		a, b := randSeq(rng, k), randSeq(rng, k)
		ma, _ := Encode64(a)
		mb, _ := Encode64(b)
		if (ma < mb) != (string(a) < string(b)) {
			t.Fatalf("order mismatch: %q vs %q -> %d vs %d", a, b, ma, mb)
		}
	}
}

func TestRevComp64AgainstString(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 1; k <= MaxK64; k++ {
		seq := randSeq(rng, k)
		m, _ := Encode64(seq)
		want := revCompString(string(seq))
		if got := String64(RevComp64(m, k), k); got != want {
			t.Errorf("k=%d RevComp64(%q) = %q, want %q", k, seq, got, want)
		}
	}
}

func TestRevComp64Involution(t *testing.T) {
	// Property: reverse complement is an involution.
	f := func(v uint64, kRaw uint8) bool {
		k := int(kRaw)%MaxK64 + 1
		m := Kmer64(v & Mask64(k))
		return RevComp64(RevComp64(m, k), k) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCanonical64(t *testing.T) {
	// Property: canonical form is idempotent and shared by a k-mer and its
	// reverse complement, and is ≤ both.
	f := func(v uint64, kRaw uint8) bool {
		k := int(kRaw)%MaxK64 + 1
		m := Kmer64(v & Mask64(k))
		c := Canonical64(m, k)
		rc := RevComp64(m, k)
		return c == Canonical64(rc, k) && c == Canonical64(c, k) && c <= m && c <= rc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// prefix64 is the 64-bit m-mer prefix bin, the oracle Prefix128 is checked
// against: the top 2m bits of a length-k Kmer64. It requires m ≤ k.
func prefix64(km Kmer64, k, m int) uint32 {
	return uint32(uint64(km) >> (2 * uint(k-m)))
}

func TestPrefix64(t *testing.T) {
	m, _ := Encode64([]byte("ACGTACGT"))
	// Prefix of length 2 is "AC" = 0b0001 = 1.
	if got := prefix64(m, 8, 2); got != 1 {
		t.Errorf("prefix64 = %d, want 1", got)
	}
	// Prefix of full length is the k-mer itself.
	if got := prefix64(m, 8, 8); uint64(got) != uint64(m)&0xFFFF_FFFF {
		t.Errorf("full prefix = %d, want low bits of %d", got, m)
	}
}

func TestEncode128RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for k := 1; k <= MaxK128; k++ {
		seq := randSeq(rng, k)
		m, ok := Encode128(seq)
		if !ok {
			t.Fatalf("Encode128(%q) failed", seq)
		}
		if got := String128(m, k); got != string(seq) {
			t.Errorf("k=%d round trip: got %q want %q", k, got, seq)
		}
	}
}

func TestEncode128MatchesEncode64(t *testing.T) {
	// For k ≤ 31 the 128-bit value must have Hi = 0 and Lo equal to the
	// 64-bit encoding.
	rng := rand.New(rand.NewSource(5))
	for k := 1; k <= MaxK64; k++ {
		seq := randSeq(rng, k)
		m64, _ := Encode64(seq)
		m128, _ := Encode128(seq)
		if m128.Hi != 0 || m128.Lo != uint64(m64) {
			t.Errorf("k=%d: Encode128=%+v, Encode64=%d", k, m128, m64)
		}
	}
}

func TestRevComp128AgainstString(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for k := 1; k <= MaxK128; k++ {
		seq := randSeq(rng, k)
		m, _ := Encode128(seq)
		want := revCompString(string(seq))
		if got := String128(RevComp128(m, k), k); got != want {
			t.Errorf("k=%d RevComp128(%q) = %q, want %q", k, seq, got, want)
		}
	}
}

func TestRevComp128Involution(t *testing.T) {
	f := func(hi, lo uint64, kRaw uint8) bool {
		k := int(kRaw)%MaxK128 + 1
		m := Kmer128{Hi: hi, Lo: lo}.And(k)
		rc := RevComp128(RevComp128(m, k), k)
		return rc.Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestKmer128Order(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(MaxK128)
		a, b := randSeq(rng, k), randSeq(rng, k)
		ma, _ := Encode128(a)
		mb, _ := Encode128(b)
		if ma.Less(mb) != (string(a) < string(b)) {
			t.Fatalf("order mismatch at k=%d: %q vs %q", k, a, b)
		}
	}
}

func TestPrefix128MatchesPrefix64(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(MaxK64-1)
		m := 1 + rng.Intn(k)
		if m > 16 {
			m = 16
		}
		seq := randSeq(rng, k)
		m64, _ := Encode64(seq)
		m128, _ := Encode128(seq)
		if prefix64(m64, k, m) != Prefix128(m128, k, m) {
			t.Fatalf("prefix mismatch k=%d m=%d seq=%q", k, m, seq)
		}
	}
	// KmerGen and IndexCreate bin every key with Prefix128, so a k ≤ 31 key
	// (Hi = 0, Lo = the Kmer64 value) must land in the prefix64 bin for
	// every (k, m) the index accepts, including all-T k-mers.
	for k := 1; k <= MaxK64; k++ {
		for m := 1; m <= min(k, 12); m++ {
			for trial := 0; trial < 8; trial++ {
				seq := randSeq(rng, k)
				if trial == 0 {
					seq = []byte(strings.Repeat("T", k))
				}
				m64, _ := Encode64(seq)
				if got, want := Prefix128(Kmer128{Lo: uint64(m64)}, k, m), prefix64(m64, k, m); got != want {
					t.Fatalf("k=%d m=%d seq=%q: Prefix128 %d, prefix64 %d", k, m, seq, got, want)
				}
			}
		}
	}
}

func TestPrefix128LargeK(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		k := 33 + rng.Intn(MaxK128-32)
		m := 1 + rng.Intn(16)
		seq := randSeq(rng, k)
		m128, _ := Encode128(seq)
		// The prefix must equal the encoding of the first m bases.
		want, _ := Encode64(seq[:m])
		if got := Prefix128(m128, k, m); uint64(got) != uint64(want) {
			t.Fatalf("k=%d m=%d: got %d want %d", k, m, got, want)
		}
	}
}

func TestForEach64Basic(t *testing.T) {
	var got []string
	var pos []int
	ForEach64([]byte("ACGTA"), 3, func(p int, m Kmer64) {
		pos = append(pos, p)
		got = append(got, String64(m, 3))
	})
	// Windows: ACG (canon ACG vs CGT -> ACG), CGT (canon ACG), GTA (canon GTA vs TAC -> GTA... revcomp(GTA)=TAC; min(GTA,TAC)=GTA).
	want := []string{"ACG", "ACG", "GTA"}
	if len(got) != 3 {
		t.Fatalf("got %d k-mers, want 3", len(got))
	}
	for i := range want {
		if got[i] != want[i] || pos[i] != i {
			t.Errorf("window %d: got %s@%d want %s@%d", i, got[i], pos[i], want[i], i)
		}
	}
}

func TestForEach64SkipsN(t *testing.T) {
	var got []int
	ForEach64([]byte("ACGTNACGT"), 3, func(p int, _ Kmer64) { got = append(got, p) })
	want := []int{0, 1, 5, 6} // windows overlapping the N are skipped
	if len(got) != len(want) {
		t.Fatalf("positions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("positions = %v, want %v", got, want)
		}
	}
}

func TestForEach64MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.Intn(20)
		n := rng.Intn(200)
		seq := randSeq(rng, n)
		// Sprinkle Ns.
		for i := range seq {
			if rng.Intn(20) == 0 {
				seq[i] = 'N'
			}
		}
		var got []Kmer64
		ForEach64(seq, k, func(_ int, m Kmer64) { got = append(got, m) })
		var want []Kmer64
		for i := 0; i+k <= len(seq); i++ {
			if m, ok := Encode64(seq[i : i+k]); ok {
				want = append(want, Canonical64(m, k))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d len=%d: got %d k-mers, want %d", k, n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d window %d: got %s want %s", k, i, String64(got[i], k), String64(want[i], k))
			}
		}
	}
}

func TestForEach128MatchesForEach64(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(29)
		seq := randSeq(rng, 150)
		var a []Kmer64
		ForEach64(seq, k, func(_ int, m Kmer64) { a = append(a, m) })
		var b, key []Kmer128
		ForEach128(seq, k, func(_ int, m Kmer128) { b = append(b, m) })
		ForEachKey(seq, k, func(_ int, m Kmer128) { key = append(key, m) })
		if len(a) != len(b) || len(a) != len(key) {
			t.Fatalf("count mismatch: %d vs %d vs %d", len(a), len(b), len(key))
		}
		for i := range a {
			if b[i].Hi != 0 || b[i].Lo != uint64(a[i]) {
				t.Fatalf("k=%d window %d: 128=%+v 64=%d", k, i, b[i], a[i])
			}
			if !key[i].Equal(b[i]) {
				t.Fatalf("k=%d window %d: ForEachKey=%+v 128=%+v", k, i, key[i], b[i])
			}
		}
	}
}

func TestForEach128LargeKMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		k := 33 + rng.Intn(31)
		seq := randSeq(rng, 300)
		for i := range seq {
			if rng.Intn(30) == 0 {
				seq[i] = 'N'
			}
		}
		var got, key []Kmer128
		ForEach128(seq, k, func(_ int, m Kmer128) { got = append(got, m) })
		ForEachKey(seq, k, func(_ int, m Kmer128) { key = append(key, m) })
		if len(key) != len(got) {
			t.Fatalf("k=%d: ForEachKey %d k-mers, ForEach128 %d", k, len(key), len(got))
		}
		var want []Kmer128
		for i := 0; i+k <= len(seq); i++ {
			if m, ok := Encode128(seq[i : i+k]); ok {
				want = append(want, Canonical128(m, k))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d want %d", k, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) || !key[i].Equal(want[i]) {
				t.Fatalf("k=%d window %d mismatch", k, i)
			}
		}
	}
}

func TestForEachKeyWindowCount(t *testing.T) {
	// Exactly the length-k windows of ACGT bases are enumerated, on both
	// sides of the 64/128-bit boundary.
	cases := []struct {
		seq  string
		k, n int
	}{
		{"ACGTACGT", 3, 6},
		{"ACGTNACGT", 3, 4},
		{"NNNN", 2, 0},
		{"AC", 3, 0},
		{"ACGT", 4, 1},
		{strings.Repeat("ACGT", 8), 31, 2},
		{strings.Repeat("ACGT", 8), 32, 1},
		{strings.Repeat("ACGT", 8) + "N" + strings.Repeat("ACGT", 8), 32, 2},
		{strings.Repeat("ACGT", 16), 63, 2},
	}
	for _, c := range cases {
		n := 0
		ForEachKey([]byte(c.seq), c.k, func(int, Kmer128) { n++ })
		if n != c.n {
			t.Errorf("ForEachKey(%q, %d) enumerated %d k-mers, want %d", c.seq, c.k, n, c.n)
		}
	}
}

func TestAppendCanonical64MatchesForEach(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 150; trial++ {
		k := 2 + rng.Intn(29)
		seq := randSeq(rng, rng.Intn(500))
		for i := range seq {
			if rng.Intn(40) == 0 {
				seq[i] = 'N'
			}
		}
		var want []Kmer64
		ForEach64(seq, k, func(_ int, m Kmer64) { want = append(want, m) })
		got := AppendCanonical64(nil, seq, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: appended %d k-mers, ForEach64 produced %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d window %d: appended %s, ForEach64 %s", k, i,
					String64(got[i], k), String64(want[i], k))
			}
		}
	}
}

func TestAppendCanonical64AppendsToExisting(t *testing.T) {
	pre := []Kmer64{1, 2, 3}
	got := AppendCanonical64(pre, []byte("ACGTACGTACGTACGTACGTACGTACGT"), 5)
	if len(got) < 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatal("prefix of dst was not preserved")
	}
}

func TestCheckK(t *testing.T) {
	if CheckK64(0) == nil || CheckK64(32) == nil || CheckK64(27) != nil {
		t.Error("CheckK64 bounds wrong")
	}
	if CheckK128(0) == nil || CheckK128(64) == nil || CheckK128(63) != nil {
		t.Error("CheckK128 bounds wrong")
	}
}

func BenchmarkForEach64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seq := randSeq(rng, 100)
	b.SetBytes(100)
	for i := 0; i < b.N; i++ {
		ForEach64(seq, 27, func(int, Kmer64) {})
	}
}

func BenchmarkForEach128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seq := randSeq(rng, 100)
	b.SetBytes(100)
	for i := 0; i < b.N; i++ {
		ForEach128(seq, 55, func(int, Kmer128) {})
	}
}

func BenchmarkKeyBlock64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seq := randSeq(rng, 100)
	b.SetBytes(100)
	var r Roller
	var block Block
	var sink uint64
	for i := 0; i < b.N; i++ {
		r.Reset(seq, 27)
		for _, keys := r.Next64(&block); len(keys) > 0; _, keys = r.Next64(&block) {
			sink ^= keys[len(keys)-1]
		}
	}
	blockSink = sink
}

func BenchmarkKeyBlock128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seq := randSeq(rng, 100)
	b.SetBytes(100)
	var r Roller
	var hi, lo Block
	var sink uint64
	for i := 0; i < b.N; i++ {
		r.Reset(seq, 55)
		for _, _, keys := r.Next128(&hi, &lo); len(keys) > 0; _, _, keys = r.Next128(&hi, &lo) {
			sink ^= keys[len(keys)-1]
		}
	}
	blockSink = sink
}

// blockSink keeps the benchmarks' block reads live.
var blockSink uint64
