package server

// query.go is the high-QPS read path (ROADMAP item 5): POST /query answers
// component-label lookups for batches of k-mers or raw sequences from a
// memory-mapped lookup file (internal/lookup) built out of a partition
// artifact. The tier hot-swaps the served lookup when the artifact store
// admits a newer artifact for the followed key, admission-controls bursts
// with the jobs-layer 429 machinery, and reports latency through an obsv
// log2 histogram (metaprepd_query_seconds).

import (
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metaprep/internal/artifact"
	"metaprep/internal/container"
	"metaprep/internal/jobs"
	"metaprep/internal/kmer"
	"metaprep/internal/lookup"
	"metaprep/internal/obsv"
)

// QueryOptions configures the query tier.
type QueryOptions struct {
	// Dir holds the lookup the tier builds from an artifact, served.mplk
	// (required). Temp files a dead rebuild left there, and the lookup
	// generations an earlier release built there, are swept at start.
	Dir string
	// Artifact, when set, is served from startup: a .mpa is converted to a
	// lookup first, a .mplk is mapped in place. Startup fails if it cannot
	// be served.
	Artifact string
	// Key is the artifact-store name to follow for hot swap: every time
	// the store admits an artifact committed under this name, the tier
	// rebuilds and atomically swaps the served lookup. The special value
	// "auto" adopts the first committed partition artifact ("p-…") and
	// follows that name from then on. Empty disables auto swap.
	Key string
	// Shards is the lookup build shard count (default lookup.DefaultShards).
	Shards int
	// MaxBatch bounds the items (k-mers + sequences) per request (default
	// 8192); larger requests are rejected with 400.
	MaxBatch int
	// MaxConcurrent bounds requests in flight; excess is rejected with 429
	// + Retry-After, reusing the jobs-layer admission contract (default 64).
	MaxConcurrent int
	// Workers sizes the shard-parallel batch pool (default GOMAXPROCS).
	Workers int
	// Logger receives swap and rebuild records. Nil logs nothing.
	Logger *slog.Logger
}

// QueryTier owns the served lookup, its swap lifecycle, admission gate and
// metrics. Create with NewQueryTier, hand to server.Options.Query, wire
// ArtifactCommitted into jobs.Options.OnArtifactCommit, and Close on
// shutdown.
type QueryTier struct {
	opts QueryOptions
	lg   *slog.Logger

	swap    *lookup.Swapper
	batcher *lookup.Batcher
	sem     chan struct{}
	hist    *obsv.Histogram

	queries  atomic.Uint64
	kmers    atomic.Uint64
	misses   atomic.Uint64
	rejected atomic.Uint64
	swaps    atomic.Uint64

	keyMu sync.Mutex
	key   string // followed store key; "auto" until adopted, "" = disabled

	rebuildC chan string
	quit     chan struct{}
	wg       sync.WaitGroup
	swept    int // files the boot sweep removed from Dir

	scratch sync.Pool
}

type queryScratch struct {
	hi, lo []uint64
	res    []lookup.Result
	labs   []uint32
}

// NewQueryTier builds the tier and, when opts.Artifact is set, serves it
// synchronously before returning (so a daemon flagged to serve fails fast
// on a bad artifact).
func NewQueryTier(opts QueryOptions) (*QueryTier, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("query tier: Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	// A rebuild that died with its process leaves its temp file in Dir;
	// an earlier release also left its per-rebuild generations there,
	// "<artifact>.<n>.mplk". A .mplk served in place is never swept.
	inPlace, _ := filepath.Abs(opts.Artifact)
	swept, err := container.SweepTemps(opts.Logger, opts.Dir, func(name string) bool {
		gen, _ := filepath.Match("*.[0-9]*.mplk", name)
		path, _ := filepath.Abs(filepath.Join(opts.Dir, name))
		return gen && path != inPlace
	})
	if err != nil {
		return nil, err
	}
	if opts.Shards <= 0 {
		opts.Shards = lookup.DefaultShards
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 8192
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 64
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	t := &QueryTier{
		opts:     opts,
		lg:       opts.Logger,
		swap:     lookup.NewSwapper(),
		batcher:  lookup.NewBatcher(opts.Workers),
		sem:      make(chan struct{}, opts.MaxConcurrent),
		hist:     obsv.NewHistogram(),
		key:      opts.Key,
		rebuildC: make(chan string, 1),
		quit:     make(chan struct{}),
		swept:    len(swept),
	}
	t.scratch.New = func() any { return new(queryScratch) }
	if opts.Artifact != "" {
		lk, err := t.buildLookup(opts.Artifact)
		if err != nil {
			t.batcher.Close()
			return nil, err
		}
		t.swap.Swap(lk)
		t.swaps.Add(1)
		if t.lg != nil {
			t.lg.Info("query tier serving", "source", lk.Meta().Source,
				"keys", lk.Keys(), "shards", lk.Shards(), "bytes", lk.Size())
		}
	}
	t.wg.Add(1)
	go t.rebuildLoop()
	return t, nil
}

// buildLookup turns src (.mpa or .mplk) into an open Lookup. An artifact
// is built into Dir's one served file, served.mplk: each rebuild commits
// over it, and the previous epoch's mapping keeps the old file's bytes
// alive until that epoch drains. A .mplk input is served in place.
func (t *QueryTier) buildLookup(src string) (*lookup.Lookup, error) {
	if strings.HasSuffix(src, ".mplk") {
		return lookup.Open(src)
	}
	ar, err := artifact.Open(src)
	if err != nil {
		return nil, err
	}
	defer ar.Close()
	out := filepath.Join(t.opts.Dir, "served.mplk")
	if _, err := lookup.Build(ar, out, lookup.BuildOptions{Shards: t.opts.Shards}); err != nil {
		return nil, err
	}
	return lookup.Open(out)
}

// ArtifactCommitted is the jobs.Options.OnArtifactCommit hook: when the
// committed name matches the followed key (or adopts it under "auto"), the
// artifact is queued for an asynchronous rebuild + hot swap. Queueing
// coalesces — only the newest pending artifact is built.
func (t *QueryTier) ArtifactCommitted(name, path string) {
	t.keyMu.Lock()
	key := t.key
	if key == "auto" && strings.HasPrefix(name, "p-") {
		t.key = name
		key = name
		if t.lg != nil {
			t.lg.Info("query tier adopted artifact key", "key", name)
		}
	}
	t.keyMu.Unlock()
	if key == "" || name != key {
		return
	}
	select {
	case <-t.rebuildC: // drop a stale pending build
	default:
	}
	select {
	case t.rebuildC <- path:
	default:
	}
}

func (t *QueryTier) rebuildLoop() {
	defer t.wg.Done()
	for {
		select {
		case <-t.quit:
			return
		case p := <-t.rebuildC:
			start := time.Now()
			lk, err := t.buildLookup(p)
			if err != nil {
				if t.lg != nil {
					t.lg.Warn("query tier rebuild failed", "artifact", p, "err", err)
				}
				continue
			}
			t.swap.Swap(lk)
			t.swaps.Add(1)
			if t.lg != nil {
				t.lg.Info("query tier swapped", "source", lk.Meta().Source,
					"keys", lk.Keys(), "build", time.Since(start))
			}
		}
	}
}

// Close stops the rebuild loop and worker pool and unpublishes the served
// lookup (closing it once in-flight queries drain).
func (t *QueryTier) Close() {
	close(t.quit)
	t.wg.Wait()
	t.batcher.Close()
	t.swap.Stop()
}

// QueryRequest is the POST /query body: a batch of exact k-mers (length
// must equal the served k) and/or raw sequences (each scanned into its
// canonical k-mers). Siblings additionally reports, per found k-mer, how
// many other distinct k-mers share its multiplicity (from the artifact's
// frequency histogram).
type QueryRequest struct {
	Kmers     []string `json:"kmers,omitempty"`
	Sequences []string `json:"sequences,omitempty"`
	Siblings  bool     `json:"siblings,omitempty"`
}

// KmerAnswer is one k-mer's result.
type KmerAnswer struct {
	Label    uint32 `json:"label"`
	Count    uint32 `json:"count"`
	Found    bool   `json:"found"`
	Siblings uint64 `json:"siblings,omitempty"`
}

// SequenceAnswer aggregates one sequence: the majority component label
// over its found k-mers, how many k-mers were scanned and how many hit.
type SequenceAnswer struct {
	Label uint32 `json:"label"`
	Found bool   `json:"found"`
	Kmers int    `json:"kmers"`
	Hits  int    `json:"hits"`
}

// QueryResponse answers POST /query.
type QueryResponse struct {
	// Source is the artifact the served lookup was built from; Epoch the
	// hot-swap generation that answered (monotonic per process).
	Source    string           `json:"source"`
	Epoch     uint64           `json:"epoch"`
	K         int              `json:"k"`
	Keys      uint64           `json:"keys"`
	Kmers     []KmerAnswer     `json:"kmers,omitempty"`
	Sequences []SequenceAnswer `json:"sequences,omitempty"`
}

// Execute runs one query batch against the pinned current epoch. It
// returns the HTTP status to use on error.
func (t *QueryTier) Execute(req QueryRequest) (*QueryResponse, int, error) {
	if len(req.Kmers)+len(req.Sequences) == 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("empty query: provide kmers or sequences")
	}
	if len(req.Kmers)+len(req.Sequences) > t.opts.MaxBatch {
		return nil, http.StatusBadRequest,
			fmt.Errorf("batch of %d exceeds max_batch %d", len(req.Kmers)+len(req.Sequences), t.opts.MaxBatch)
	}
	ep, ok := t.swap.Acquire()
	if !ok {
		return nil, http.StatusServiceUnavailable, fmt.Errorf("no artifact is being served")
	}
	defer ep.Release()
	lk := ep.Lookup()
	m := lk.Meta()

	sc := t.scratch.Get().(*queryScratch)
	defer t.scratch.Put(sc)

	resp := &QueryResponse{Source: m.Source, Epoch: ep.Seq(), K: m.K, Keys: m.Keys}
	var totalKmers, misses uint64

	if len(req.Kmers) > 0 {
		n := len(req.Kmers)
		sc.grow(n)
		for i, ks := range req.Kmers {
			if len(ks) != m.K {
				return nil, http.StatusBadRequest,
					fmt.Errorf("kmers[%d]: length %d, want k=%d", i, len(ks), m.K)
			}
			km, ok := kmer.CanonicalKey([]byte(ks), m.K)
			if !ok {
				return nil, http.StatusBadRequest,
					fmt.Errorf("kmers[%d]: invalid base (ACGT only)", i)
			}
			sc.hi[i], sc.lo[i] = km.Hi, km.Lo
		}
		t.runBatch(lk, m.Wide, sc, n)
		resp.Kmers = make([]KmerAnswer, n)
		for i, r := range sc.res[:n] {
			a := KmerAnswer{Label: r.Label, Count: r.Count, Found: r.Found}
			if req.Siblings && r.Found {
				a.Siblings = lk.Siblings(r.Count)
			}
			if !r.Found {
				misses++
			}
			resp.Kmers[i] = a
		}
		totalKmers += uint64(n)
	}

	if len(req.Sequences) > 0 {
		resp.Sequences = make([]SequenceAnswer, len(req.Sequences))
		for si, seq := range req.Sequences {
			n := 0
			kmer.ForEachKey([]byte(seq), m.K, func(_ int, km kmer.Kmer128) {
				sc.growTo(n + 1)
				sc.hi[n], sc.lo[n] = km.Hi, km.Lo
				n++
			})
			t.runBatch(lk, m.Wide, sc, n)
			ans := SequenceAnswer{Kmers: n}
			sc.labs = sc.labs[:0]
			for _, r := range sc.res[:n] {
				if r.Found {
					sc.labs = append(sc.labs, r.Label)
				} else {
					misses++
				}
			}
			ans.Hits = len(sc.labs)
			if ans.Hits > 0 {
				ans.Found = true
				ans.Label = majorityLabel(sc.labs)
			}
			totalKmers += uint64(n)
			resp.Sequences[si] = ans
		}
	}

	t.kmers.Add(totalKmers)
	t.misses.Add(misses)
	return resp, 0, nil
}

// runBatch executes the first n scratch keys shard-parallel.
func (t *QueryTier) runBatch(lk *lookup.Lookup, wide bool, sc *queryScratch, n int) {
	if cap(sc.res) < n {
		sc.res = make([]lookup.Result, n)
	}
	sc.res = sc.res[:n]
	var hi []uint64
	if wide {
		hi = sc.hi[:n]
	}
	t.batcher.Run(lk, hi, sc.lo[:n], sc.res)
}

func (sc *queryScratch) grow(n int) {
	if cap(sc.hi) < n {
		sc.hi = make([]uint64, n)
		sc.lo = make([]uint64, n)
	}
	sc.hi = sc.hi[:n]
	sc.lo = sc.lo[:n]
}

func (sc *queryScratch) growTo(n int) {
	if n <= len(sc.hi) {
		return
	}
	if cap(sc.hi) >= n {
		sc.hi = sc.hi[:n]
		sc.lo = sc.lo[:n]
		return
	}
	nhi := make([]uint64, n, 2*n)
	nlo := make([]uint64, n, 2*n)
	copy(nhi, sc.hi)
	copy(nlo, sc.lo)
	sc.hi, sc.lo = nhi, nlo
}

// majorityLabel returns the most frequent label (ties break low). labs is
// sorted in place.
func majorityLabel(labs []uint32) uint32 {
	slices.Sort(labs)
	best, bestN := labs[0], 0
	cur, curN := labs[0], 0
	for _, l := range labs {
		if l != cur {
			cur, curN = l, 0
		}
		curN++
		if curN > bestN {
			best, bestN = cur, curN
		}
	}
	return best
}

// maxQueryBody bounds the POST /query body (16 MiB comfortably covers a
// MaxBatch of long reads).
const maxQueryBody = 16 << 20

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t := s.opts.Query
	start := time.Now()
	// Admission: bounded concurrency, rejected with the same 429 +
	// Retry-After contract job submission uses.
	select {
	case t.sem <- struct{}{}:
		defer func() { <-t.sem }()
	default:
		t.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int((s.opts.RetryAfter+time.Second-1)/time.Second)))
		writeErr(w, http.StatusTooManyRequests, fmt.Errorf("query admission: %w", jobs.ErrQueueFull))
		return
	}
	var req QueryRequest
	if !decodeBody(w, r, maxQueryBody, &req) {
		return
	}
	resp, code, err := t.Execute(req)
	if err != nil {
		writeErr(w, code, err)
		return
	}
	t.queries.Add(1)
	t.hist.Observe(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}
