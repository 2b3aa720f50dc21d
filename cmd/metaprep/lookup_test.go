package main

import (
	"path/filepath"
	"strings"
	"testing"

	"metaprep/internal/artifact"
	"metaprep/internal/lookup"
)

// TestCLILookupBuildQuery drives the offline lookup path end to end: index a
// dataset, run the pipeline persisting its partition artifact, convert it
// with `metaprep lookup build`, and check the built lookup answers every
// artifact key with the label the artifact recorded.
func TestCLILookupBuildQuery(t *testing.T) {
	dir := t.TempDir()
	files := writeDataset(t, filepath.Join(dir, "data"))
	idxPath := filepath.Join(dir, "ds.idx")
	if err := cmdIndex(append([]string{"-k", "27", "-paired", "-chunk", "131072", "-out", idxPath}, files...)); err != nil {
		t.Fatalf("index: %v", err)
	}
	art := filepath.Join(dir, "part.mpa")
	if err := cmdRun([]string{"-index", idxPath, "-tasks", "2", "-artifact-out", art}); err != nil {
		t.Fatalf("run: %v", err)
	}
	lkPath := filepath.Join(dir, "part.mplk")
	if err := cmdLookup([]string{"build", "-out", lkPath, "-shards", "4", art}); err != nil {
		t.Fatalf("lookup build: %v", err)
	}

	ar, err := artifact.Open(art)
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	labels, err := ar.Labels()
	if err != nil {
		t.Fatal(err)
	}
	lk, err := lookup.Open(lkPath)
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()

	st, err := ar.Kmers()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	var prevHi, prevLo uint64
	first := true
	for {
		hi, lo, val, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if !first && hi == prevHi && lo == prevLo {
			continue // duplicate-key tuple; the lookup stores the run head
		}
		first = false
		prevHi, prevLo = hi, lo
		label, _, found := lk.Get(hi, lo)
		if !found || label != labels[val] {
			t.Fatalf("key (%d,%d): found=%v label=%d, want label %d", hi, lo, found, label, labels[val])
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("artifact had no keys")
	}

	// The query verb runs without error on an exact-k probe and a longer
	// sequence scan (hits or misses both print).
	if err := cmdLookup([]string{"query", "-lookup", lkPath, "-siblings",
		strings.Repeat("A", 27), strings.Repeat("ACGT", 10)}); err != nil {
		t.Fatalf("lookup query: %v", err)
	}
	// Errors: unknown verb, short probe.
	if err := cmdLookup([]string{"frobnicate"}); err == nil {
		t.Fatal("unknown verb accepted")
	}
	if err := cmdLookup([]string{"query", "-lookup", lkPath, "ACGT"}); err == nil {
		t.Fatal("short probe accepted")
	}
}

// TestCLILookupQueryShortSequence probes sequences shorter than the eight
// bases a window name abbreviates to: at a small k they are still longer
// than k and must be scanned, named in full, rather than crash the query.
func TestCLILookupQueryShortSequence(t *testing.T) {
	dir := t.TempDir()
	files := writeDataset(t, filepath.Join(dir, "data"))
	idxPath := filepath.Join(dir, "ds.idx")
	if err := cmdIndex(append([]string{"-k", "5", "-m", "4", "-out", idxPath}, files...)); err != nil {
		t.Fatalf("index: %v", err)
	}
	art := filepath.Join(dir, "part.mpa")
	if err := cmdRun([]string{"-index", idxPath, "-artifact-out", art}); err != nil {
		t.Fatalf("run: %v", err)
	}
	lkPath := filepath.Join(dir, "part.mplk")
	if err := cmdLookup([]string{"build", "-out", lkPath, art}); err != nil {
		t.Fatalf("lookup build: %v", err)
	}
	for _, seq := range []string{"ACGTAC", "ACGTACG", "ACGTACGT", "ACGTACGTA"} {
		if err := cmdLookup([]string{"query", "-lookup", lkPath, "-siblings", seq}); err != nil {
			t.Fatalf("lookup query %s: %v", seq, err)
		}
	}
}
