package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"metaprep/internal/index"
	"metaprep/internal/mpirt"
)

// stream_test.go covers the streaming chunked exchange: bit-identical
// results against the bulk reference path across k-mer widths, task counts,
// passes and chunk sizes; clean cancellation mid-stream; and the
// bulk-path-only config constraints.

// assertSameResult asserts the paper-visible outputs of two runs are
// bit-identical: labels, component census, edge and tuple counts, and the
// k-mer frequency spectrum.
func assertSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if len(want.Labels) != len(got.Labels) {
		t.Fatalf("label lengths differ: %d vs %d", len(want.Labels), len(got.Labels))
	}
	for i := range want.Labels {
		if want.Labels[i] != got.Labels[i] {
			t.Fatalf("labels diverge at read %d: %d vs %d", i, got.Labels[i], want.Labels[i])
		}
	}
	if want.Components != got.Components {
		t.Errorf("Components = %d, want %d", got.Components, want.Components)
	}
	if want.LargestRoot != got.LargestRoot || want.LargestSize != got.LargestSize {
		t.Errorf("largest component (%d, %d), want (%d, %d)",
			got.LargestRoot, got.LargestSize, want.LargestRoot, want.LargestSize)
	}
	if want.Edges != got.Edges {
		t.Errorf("Edges = %d, want %d", got.Edges, want.Edges)
	}
	if want.Tuples != got.Tuples {
		t.Errorf("Tuples = %d, want %d", got.Tuples, want.Tuples)
	}
	for f := range want.KmerFreqHist {
		if want.KmerFreqHist[f] != got.KmerFreqHist[f] {
			t.Errorf("KmerFreqHist[%d] = %d, want %d", f, got.KmerFreqHist[f], want.KmerFreqHist[f])
		}
	}
}

// TestStreamingParity asserts the streaming exchange produces bit-identical
// results to the bulk path across 64/128-bit modes, P ∈ {1,2,4}, multiple
// passes, and chunk sizes from degenerate (1 tuple) through larger-than-
// any-region (which reduces to one chunk per destination).
func TestStreamingParity(t *testing.T) {
	modes := []struct {
		name string
		opts index.Options
	}{
		{"64bit", index.Options{K: 11, M: 4, ChunkSize: 1500}},
		{"128bit", index.Options{K: 45, M: 4, ChunkSize: 1500}},
	}
	for mi, mode := range modes {
		rng := rand.New(rand.NewSource(int64(100 + mi)))
		td := overlappingDataset(t, rng, mode.opts, 4, 500, 260, 70)
		for _, tasks := range []int{1, 2, 4} {
			for _, passes := range []int{1, 3} {
				cfg := Default(td.idx)
				cfg.Tasks = tasks
				cfg.Threads = 2
				cfg.Passes = passes
				want, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, chunk := range []int{1, 7, 512} {
					name := fmt.Sprintf("%s/P%d/S%d/chunk%d", mode.name, tasks, passes, chunk)
					t.Run(name, func(t *testing.T) {
						scfg := cfg
						scfg.ExchangeChunkTuples = chunk
						got, err := Run(scfg)
						if err != nil {
							t.Fatal(err)
						}
						assertSameResult(t, want, got)
					})
				}
			}
		}
	}
}

// TestStreamingParityWithNetworkAndFilter layers the remaining production
// knobs — a modeled network and a frequency filter — on top of the
// streaming path and checks parity still holds, and that the
// exchange step time is accounted (nonzero under the network model).
func TestStreamingParityWithNetworkAndFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	td := overlappingDataset(t, rng, smallOpts(), 3, 400, 200, 50)
	cfg := Default(td.idx)
	cfg.Tasks = 3
	cfg.Threads = 2
	cfg.Passes = 2
	cfg.Filter = Filter{Min: 2, Max: 100}
	cfg.Network = mpirt.EdisonNetwork()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.ExchangeChunkTuples = 64
	got, err := Run(scfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, want, got)
	if got.Steps.KmerGenComm <= 0 {
		t.Errorf("streaming KmerGen-Comm step time = %v, want > 0", got.Steps.KmerGenComm)
	}
}

// TestStreamingCountParity checks the distributed k-mer counter under the
// streaming exchange matches the bulk counter exactly.
func TestStreamingCountParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	td := overlappingDataset(t, rng, smallOpts(), 3, 300, 150, 40)
	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.Threads = 2
	cfg.Passes = 2
	want, err := RunCount(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ExchangeChunkTuples = 32
	got, err := RunCount(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("distinct k-mers: %d vs %d", got.Len(), want.Len())
	}
	for i := range want.KmersLo {
		if got.KmersLo[i] != want.KmersLo[i] || got.Counts[i] != want.Counts[i] {
			t.Fatalf("count table diverges at %d: (%x, %d) vs (%x, %d)",
				i, got.KmersLo[i], got.Counts[i], want.KmersLo[i], want.Counts[i])
		}
	}
}

// TestStreamingCancelMidKmerGen cancels a streaming run at a KmerGen chunk
// boundary and checks RunContext returns promptly with context.Canceled and
// no goroutine — rank bodies, prefetchers, exchange senders/receivers,
// outbox flushers — is leaked. Run under -race this exercises the abort
// path through Task.Abort and the tracker publish waits.
func TestStreamingCancelMidKmerGen(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	td := overlappingDataset(t, rng, smallOpts(), 4, 400, 300, 40)

	base := runtime.NumGoroutine()
	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.Threads = 2
	cfg.ExchangeChunkTuples = 16
	// Keep the prefetch goroutines in play on single-CPU hosts too — this
	// test exists to check they exit.
	cfg.PrefetchChunks = 2

	ctx := newChunkCancelCtx(3)
	res, err := RunContext(ctx, cfg)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext after mid-KmerGen cancel: err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("RunContext returned a result alongside cancellation")
	}
	flipped := ctx.cancelledAt()
	if flipped.IsZero() {
		t.Fatalf("context never flipped: the run finished before %d chunk polls", ctx.limit)
	}
	if lat := returned.Sub(flipped); lat > time.Second {
		t.Fatalf("cancellation latency %v, want <= 1s", lat)
	}
	waitGoroutines(t, base, 2, 5*time.Second)
}
