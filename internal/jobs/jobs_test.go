package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metaprep/internal/core"
	"metaprep/internal/fastq"
	"metaprep/internal/index"
	"metaprep/internal/obsv"
)

// testConfig returns a valid config over a synthetic in-memory index.
// Validate and CacheKey only read the options and index tables, so no
// dataset is needed to exercise the manager.
func testConfig() core.Config {
	idx := &index.Index{
		Opts:    index.Options{K: 27, M: 10, ChunkSize: 1 << 20},
		Files:   []string{"synthetic.fastq"},
		MerHist: []uint64{1, 2, 3},
		Reads:   10,
	}
	return core.Default(idx)
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, m *Manager, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitDone blocks on the job's done channel with a timeout.
func waitDone(t *testing.T, j *Job, d time.Duration) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(d):
		t.Fatalf("job %s did not finish within %v", j.ID, d)
	}
}

func TestSubmitRunsToDone(t *testing.T) {
	want := &core.Result{}
	var runs atomic.Int64
	m := NewManager(Options{Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		runs.Add(1)
		return want, nil
	}})
	defer m.Stop()

	j, fresh, err := m.Submit(testConfig())
	if err != nil || !fresh {
		t.Fatalf("Submit: job=%v fresh=%v err=%v", j, fresh, err)
	}
	waitDone(t, j, 5*time.Second)
	st, err := m.Status(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Done || st.CacheHit || st.Attempts != 1 {
		t.Fatalf("status after run: %+v", st)
	}
	res, err := m.Result(j.ID)
	if err != nil || res != want {
		t.Fatalf("Result: %v, %v", res, err)
	}
	if runs.Load() != 1 {
		t.Fatalf("runner executed %d times", runs.Load())
	}
}

func TestSubmitRejectsInvalidConfig(t *testing.T) {
	m := NewManager(Options{Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		return &core.Result{}, nil
	}})
	defer m.Stop()
	cfg := testConfig()
	cfg.Tasks = 0
	if _, _, err := m.Submit(cfg); !errors.Is(err, core.ErrInvalidConfig) {
		t.Fatalf("Submit(invalid): err = %v, want ErrInvalidConfig", err)
	}
}

// TestConcurrentIdenticalSubmits is the single-execution-per-key guarantee
// under -race: many goroutines submit the same config while the runner is
// still executing; exactly one execution happens and everyone lands on the
// same job. After completion, resubmission is a cache hit.
func TestConcurrentIdenticalSubmits(t *testing.T) {
	release := make(chan struct{})
	var runs atomic.Int64
	m := NewManager(Options{Workers: 4, Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		runs.Add(1)
		<-release
		return &core.Result{}, nil
	}})
	defer m.Stop()

	const N = 24
	var wg sync.WaitGroup
	ids := make([]string, N)
	freshCount := atomic.Int64{}
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, fresh, err := m.Submit(testConfig())
			if err != nil {
				t.Error(err)
				return
			}
			if fresh {
				freshCount.Add(1)
			}
			ids[i] = j.ID
		}(i)
	}
	wg.Wait()
	if freshCount.Load() != 1 {
		t.Fatalf("%d fresh submissions, want 1", freshCount.Load())
	}
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("submissions landed on different jobs: %v", ids)
		}
	}
	close(release)
	j, _ := m.Get(ids[0])
	waitDone(t, j, 5*time.Second)
	if runs.Load() != 1 {
		t.Fatalf("runner executed %d times for one key", runs.Load())
	}

	// The completed result now serves resubmissions from the cache.
	j2, fresh, err := m.Submit(testConfig())
	if err != nil || fresh {
		t.Fatalf("resubmit: fresh=%v err=%v", fresh, err)
	}
	if j2.ID == ids[0] {
		t.Fatalf("cache hit reused the original job object")
	}
	waitDone(t, j2, time.Second)
	st, _ := m.Status(j2.ID)
	if st.State != Done || !st.CacheHit {
		t.Fatalf("cache-hit status: %+v", st)
	}
	if runs.Load() != 1 {
		t.Fatalf("cache hit re-executed the runner")
	}
	if s := m.StatsSnapshot(); s.CacheHits < uint64(N) {
		t.Fatalf("StatsSnapshot.CacheHits = %d, want >= %d", s.CacheHits, N)
	}
}

// TestConcurrentDistinctSubmits checks distinct keys run independently,
// once each, under -race.
func TestConcurrentDistinctSubmits(t *testing.T) {
	var mu sync.Mutex
	runsPerKey := map[int]int{}
	m := NewManager(Options{Workers: 4, QueueCap: 64,
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			mu.Lock()
			runsPerKey[cfg.SplitComponents]++
			mu.Unlock()
			return &core.Result{}, nil
		}})
	defer m.Stop()

	const N = 12
	var wg sync.WaitGroup
	jobs := make([]*Job, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := testConfig()
			cfg.SplitComponents = i + 1 // distinct cache keys
			j, fresh, err := m.Submit(cfg)
			if err != nil || !fresh {
				t.Errorf("submit %d: fresh=%v err=%v", i, fresh, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	for _, j := range jobs {
		if j != nil {
			waitDone(t, j, 5*time.Second)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(runsPerKey) != N {
		t.Fatalf("%d distinct keys executed, want %d", len(runsPerKey), N)
	}
	for k, n := range runsPerKey {
		if n != 1 {
			t.Fatalf("key %d executed %d times", k, n)
		}
	}
}

// TestQueueFullAdmission checks the bounded queue rejects with ErrQueueFull
// once the single worker is busy and the queue is at capacity, and admits
// again after the backlog drains.
func TestQueueFullAdmission(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	m := NewManager(Options{Workers: 1, QueueCap: 2,
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			started <- fmt.Sprint(cfg.SplitComponents)
			<-release
			return &core.Result{}, nil
		}})
	defer m.Stop()

	submit := func(i int) (*Job, error) {
		cfg := testConfig()
		cfg.SplitComponents = i
		j, _, err := m.Submit(cfg)
		return j, err
	}

	// First job occupies the worker…
	first, err := submit(1)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the first job")
	}
	// …two more fill the queue…
	if _, err := submit(2); err != nil {
		t.Fatal(err)
	}
	if _, err := submit(3); err != nil {
		t.Fatal(err)
	}
	// …and the next distinct submission is rejected.
	if _, err := submit(4); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit beyond capacity: err = %v, want ErrQueueFull", err)
	}
	// A duplicate of queued work still coalesces rather than erroring.
	cfg := testConfig()
	cfg.SplitComponents = 2
	if _, fresh, err := m.Submit(cfg); err != nil || fresh {
		t.Fatalf("duplicate during full queue: fresh=%v err=%v", fresh, err)
	}

	close(release)
	waitDone(t, first, 5*time.Second)
	// Once the backlog drains, admission resumes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := submit(4); err == nil {
			break
		} else if !errors.Is(err, ErrQueueFull) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCancelPendingJob(t *testing.T) {
	release := make(chan struct{})
	var runs atomic.Int64
	m := NewManager(Options{Workers: 1,
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			runs.Add(1)
			<-release
			return &core.Result{}, nil
		}})
	defer m.Stop()

	blocker := testConfig()
	blocker.SplitComponents = 1
	bj, _, err := m.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, bj.ID, Running)

	queued := testConfig()
	queued.SplitComponents = 2
	qj, _, err := m.Submit(queued)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(qj.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, qj, time.Second) // finalized immediately, not on dequeue
	st, _ := m.Status(qj.ID)
	if st.State != Cancelled {
		t.Fatalf("pending job after cancel: %+v", st)
	}
	// Cancel is idempotent, including on terminal jobs.
	if err := m.Cancel(qj.ID); err != nil {
		t.Fatal(err)
	}

	close(release)
	waitDone(t, bj, 5*time.Second)
	if runs.Load() != 1 {
		t.Fatalf("cancelled pending job was executed (%d runs)", runs.Load())
	}
	// A fresh submission of the cancelled key runs normally (no poisoning).
	qj2, fresh, err := m.Submit(queued)
	if err != nil || !fresh {
		t.Fatalf("resubmit after cancel: fresh=%v err=%v", fresh, err)
	}
	waitDone(t, qj2, 5*time.Second)
}

func TestCancelRunningJob(t *testing.T) {
	m := NewManager(Options{
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			<-ctx.Done() // a well-behaved pipeline returns ctx.Err() promptly
			return nil, ctx.Err()
		}})
	defer m.Stop()

	j, _, err := m.Submit(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, Running)
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, time.Second) // the acceptance bound: cancel returns < 1s
	st, _ := m.Status(j.ID)
	if st.State != Cancelled {
		t.Fatalf("running job after cancel: %+v", st)
	}
	if _, err := m.Result(j.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("Result of cancelled job: err = %v, want ErrNotDone", err)
	}
}

func TestCancelUnknownJob(t *testing.T) {
	m := NewManager(Options{Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		return &core.Result{}, nil
	}})
	defer m.Stop()
	if err := m.Cancel("j999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel(unknown): err = %v, want ErrNotFound", err)
	}
	if _, err := m.Status("j999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Status(unknown): err = %v, want ErrNotFound", err)
	}
}

// TestTransientRetry checks transient failures retry up to Retries and then
// succeed, while permanent failures fail on the first attempt.
func TestTransientRetry(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(Options{Retries: 2,
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			if calls.Add(1) < 3 {
				return nil, fmt.Errorf("flaky read: %w", ErrTransient)
			}
			return &core.Result{}, nil
		}})
	defer m.Stop()

	j, _, err := m.Submit(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 5*time.Second)
	st, _ := m.Status(j.ID)
	if st.State != Done || st.Attempts != 3 {
		t.Fatalf("after transient retries: %+v", st)
	}

	permanent := errors.New("corrupt index")
	var permCalls atomic.Int64
	m2 := NewManager(Options{Retries: 2,
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			permCalls.Add(1)
			return nil, permanent
		}})
	defer m2.Stop()
	j2, _, err := m2.Submit(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2, 5*time.Second)
	st2, _ := m2.Status(j2.ID)
	if st2.State != Failed || st2.Attempts != 1 || permCalls.Load() != 1 {
		t.Fatalf("permanent failure retried: %+v (calls %d)", st2, permCalls.Load())
	}
}

// selfDescribingFault declares its own retryability via a Transient method,
// the way instrumented I/O fault types do.
type selfDescribingFault struct{ retryable bool }

func (f *selfDescribingFault) Error() string   { return "io stall" }
func (f *selfDescribingFault) Transient() bool { return f.retryable }

func TestIsTransientClassifier(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{fmt.Errorf("run: %w", context.DeadlineExceeded), false},
		{&core.ConfigError{Field: "Tasks", Reason: "0"}, false},
		{ErrTransient, true},
		{fmt.Errorf("pass 2: %w", ErrTransient), true},
		{&selfDescribingFault{retryable: true}, true},
		{fmt.Errorf("chunk 3: %w", &selfDescribingFault{retryable: true}), true},
		{&selfDescribingFault{retryable: false}, false},
		{errors.New("plain failure"), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestCacheEviction checks the LRU bound: with capacity 1, an older result
// is evicted and its key re-executes on resubmission.
func TestCacheEviction(t *testing.T) {
	var runs atomic.Int64
	m := NewManager(Options{CacheCap: 1,
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			runs.Add(1)
			return &core.Result{}, nil
		}})
	defer m.Stop()

	run := func(i int) {
		cfg := testConfig()
		cfg.SplitComponents = i
		j, _, err := m.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j, 5*time.Second)
	}
	run(1)
	run(2) // evicts key 1
	if s := m.StatsSnapshot(); s.CacheEntries != 1 {
		t.Fatalf("cache entries = %d, want 1", s.CacheEntries)
	}
	run(1) // re-executes
	if runs.Load() != 3 {
		t.Fatalf("runner executed %d times, want 3 (eviction forces re-run)", runs.Load())
	}
}

// TestDrainGraceful checks Drain rejects new work, finishes queued work and
// returns; Stop hard-cancels instead.
func TestDrainGraceful(t *testing.T) {
	var runs atomic.Int64
	m := NewManager(Options{Workers: 2,
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			runs.Add(1)
			time.Sleep(10 * time.Millisecond)
			return &core.Result{}, nil
		}})

	var jobsList []*Job
	for i := 1; i <= 4; i++ {
		cfg := testConfig()
		cfg.SplitComponents = i
		j, _, err := m.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		jobsList = append(jobsList, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, j := range jobsList {
		st, _ := m.Status(j.ID)
		if st.State != Done {
			t.Fatalf("job %s after drain: %+v", j.ID, st)
		}
	}
	if runs.Load() != 4 {
		t.Fatalf("drain lost work: %d runs, want 4", runs.Load())
	}
	if _, _, err := m.Submit(testConfig()); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit while draining: err = %v, want ErrDraining", err)
	}
	if !m.StatsSnapshot().Draining {
		t.Fatalf("StatsSnapshot.Draining = false after Drain")
	}
}

func TestStopCancelsRunning(t *testing.T) {
	m := NewManager(Options{
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	j, _, err := m.Submit(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, Running)
	m.Stop()
	waitDone(t, j, time.Second)
	st, _ := m.Status(j.ID)
	if st.State != Cancelled {
		t.Fatalf("job after Stop: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain after Stop: %v", err)
	}
}

// TestBufferPoolThreadedThroughJobs checks every job's runner receives the
// manager's shared tuple-buffer pool (so back-to-back jobs reuse kmerIn and
// kmerOut), while the job's stored Config — and therefore its identity and
// cache key — stays pool-free, and that the pool's hit/miss figures surface
// in the stats snapshot.
func TestBufferPoolThreadedThroughJobs(t *testing.T) {
	var pools []*core.TuplePool
	var mu sync.Mutex
	m := NewManager(Options{Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		mu.Lock()
		pools = append(pools, cfg.Pool)
		mu.Unlock()
		return &core.Result{}, nil
	}})
	defer m.Stop()

	cfg1 := testConfig()
	j1, _, err := m.Submit(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1, 5*time.Second)
	cfg2 := testConfig()
	cfg2.Passes = 2 // distinct cache key: forces a second execution
	j2, _, err := m.Submit(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2, 5*time.Second)

	mu.Lock()
	defer mu.Unlock()
	if len(pools) != 2 {
		t.Fatalf("runner executed %d times, want 2", len(pools))
	}
	if pools[0] == nil || pools[0] != pools[1] {
		t.Fatalf("jobs did not share one pool: %p vs %p", pools[0], pools[1])
	}
	if j1.Config.Pool != nil || j2.Config.Pool != nil {
		t.Fatalf("pool leaked into the stored job Config")
	}
	s := m.StatsSnapshot()
	if s.BufPoolHits != 0 || s.BufPoolMisses != 0 {
		// The fake runner never acquires buffers; the figures must simply
		// be present and zero (core's pool tests cover real reuse).
		t.Fatalf("unexpected pool figures: hits=%d misses=%d", s.BufPoolHits, s.BufPoolMisses)
	}
}

// realIndex writes reads drawn from three random genomes to a FASTQ file
// and indexes it: enough tuples that a MinSpillBudgetBytes run spills.
func realIndex(t *testing.T, seed int64) *index.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	genomes := make([][]byte, 3)
	for g := range genomes {
		genomes[g] = make([]byte, 600)
		for i := range genomes[g] {
			genomes[g][i] = "ACGT"[rng.Intn(4)]
		}
	}
	path := filepath.Join(t.TempDir(), "reads.fastq")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := fastq.NewWriter(f)
	const readLen = 50
	for i := 0; i < 1500; i++ {
		g := genomes[rng.Intn(len(genomes))]
		pos := rng.Intn(len(g) - readLen)
		if err := w.Write(fastq.Record{ID: []byte("r"), Seq: g[pos : pos+readLen],
			Qual: bytes.Repeat([]byte("I"), readLen)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	idx, err := index.Build([]string{path}, index.Options{K: 11, M: 4, ChunkSize: 1500})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// scratchProbe is a slog.Handler on the manager's logger. When a pipeline
// logs its start — the run's scratch directory exists by then — it records
// what the spill root holds and whether the plan spills; for the job named
// block it then waits for that job's cancellation, so Cancel lands while
// the run holds scratch.
type scratchProbe struct {
	root    string
	block   string
	started chan struct{}

	mu    sync.Mutex
	roots map[string][]string // spill root entries at pipeline start, by job
	spill map[string]bool
}

func (h *scratchProbe) Enabled(context.Context, slog.Level) bool { return true }
func (h *scratchProbe) Handle(ctx context.Context, r slog.Record) error {
	if r.Message != "pipeline start" {
		return nil
	}
	id := obsv.JobIDFrom(ctx)
	var names []string
	ents, _ := os.ReadDir(h.root)
	for _, e := range ents {
		names = append(names, e.Name())
	}
	h.mu.Lock()
	h.roots[id] = names
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "spill" {
			h.spill[id] = a.Value.Bool()
		}
		return true
	})
	h.mu.Unlock()
	if id == h.block {
		close(h.started)
		<-ctx.Done()
	}
	return nil
}
func (h *scratchProbe) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *scratchProbe) WithGroup(string) slog.Handler      { return h }

// TestSpillDirPerJobLifecycle runs the real runner for a done, a failed
// and a cancelled spilling job under a manager spill root. Each run keeps
// its scratch in one directory under the root, the stored Config stays
// clean, and the root is empty again at every terminal state: core
// removes the run directory before the runner returns.
func TestSpillDirPerJobLifecycle(t *testing.T) {
	root := t.TempDir()
	probe := &scratchProbe{root: root, block: "j3", started: make(chan struct{}),
		roots: map[string][]string{}, spill: map[string]bool{}}
	m := NewManager(Options{Workers: 1, SpillDir: root, Logger: slog.New(probe)})
	defer m.Stop()

	submit := func(idx *index.Index, passes int) *Job {
		cfg := core.Default(idx)
		cfg.Tasks, cfg.Threads, cfg.Passes = 2, 2, passes
		cfg.SpillBudgetBytes = core.MinSpillBudgetBytes
		j, _, err := m.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	rootEmpty := func(j *Job) {
		t.Helper()
		if ents, _ := os.ReadDir(root); len(ents) != 0 {
			t.Fatalf("job %s: spill root holds %v at its terminal state", j.ID, ents)
		}
	}

	good := realIndex(t, 1)
	done := submit(good, 1)
	waitDone(t, done, 10*time.Second)
	rootEmpty(done)

	// Blank every A after indexing: the file keeps its size, so the run
	// starts and fails mid-KmerGen on the stale index.
	stale := realIndex(t, 2)
	data, err := os.ReadFile(stale.Files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stale.Files[0], bytes.ReplaceAll(data, []byte("A"), []byte("N")), 0o644); err != nil {
		t.Fatal(err)
	}
	failed := submit(stale, 1)
	waitDone(t, failed, 10*time.Second)
	rootEmpty(failed)

	cancelled := submit(good, 2)
	select {
	case <-probe.started:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled job's pipeline never started")
	}
	if err := m.Cancel(cancelled.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, cancelled, 10*time.Second)
	rootEmpty(cancelled)

	want := map[*Job]State{done: Done, failed: Failed, cancelled: Cancelled}
	probe.mu.Lock()
	defer probe.mu.Unlock()
	for j, state := range want {
		st, _ := m.Status(j.ID)
		if st.State != state {
			t.Errorf("job %s ended %s (%s), want %s", j.ID, st.State, st.Error, state)
		}
		names := probe.roots[j.ID]
		if len(names) != 1 || !strings.HasPrefix(names[0], "metaprep-run-") {
			t.Errorf("job %s: spill root while running = %v, want one metaprep-run-* directory", j.ID, names)
		}
		if !probe.spill[j.ID] {
			t.Errorf("job %s did not spill", j.ID)
		}
		if j.Config.SpillDir != "" {
			t.Errorf("job %s: spill dir leaked into the stored Config: %q", j.ID, j.Config.SpillDir)
		}
	}
}

// TestSpillDirRespectsExplicitConfig checks the manager never overrides a
// job-supplied SpillDir and roots every other job's scratch at its spill
// root, spilling or not.
func TestSpillDirRespectsExplicitConfig(t *testing.T) {
	root := t.TempDir()
	own := t.TempDir()
	var mu sync.Mutex
	got := map[int]string{}
	m := NewManager(Options{SpillDir: root,
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			mu.Lock()
			got[cfg.SplitComponents] = cfg.SpillDir
			mu.Unlock()
			return &core.Result{}, nil
		}})
	defer m.Stop()

	explicit := testConfig()
	explicit.SplitComponents = 1
	explicit.SpillBudgetBytes = 1 << 20
	explicit.SpillDir = own
	j1, _, err := m.Submit(explicit)
	if err != nil {
		t.Fatal(err)
	}
	noSpill := testConfig()
	noSpill.SplitComponents = 2
	j2, _, err := m.Submit(noSpill)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1, 5*time.Second)
	waitDone(t, j2, 5*time.Second)

	mu.Lock()
	defer mu.Unlock()
	if got[1] != own {
		t.Errorf("explicit SpillDir overridden: got %q, want %q", got[1], own)
	}
	if got[2] != root {
		t.Errorf("non-spilling job ran with SpillDir %q, want the root %q", got[2], root)
	}
	if _, err := os.Stat(own); err != nil {
		t.Errorf("manager removed a directory it did not create: %v", err)
	}
}

// TestIncrementalJobOutputFailureLeavesNoArtifact runs a real delta job
// whose CC-I/O fails: the job fails, and the store holds neither an
// i-<job>.mpa nor a temp file — the run writes at the final store name
// and commits only once it has succeeded.
func TestIncrementalJobOutputFailureLeavesNoArtifact(t *testing.T) {
	store := t.TempDir()
	m := NewManager(Options{ArtifactDir: store, SpillDir: t.TempDir()})
	defer m.Stop()
	j1, _, err := m.Submit(core.Default(realIndex(t, 3)))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1, 10*time.Second)
	base, err := m.ArtifactPath(j1.ID)
	if err != nil {
		t.Fatal(err)
	}

	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := core.Default(realIndex(t, 4))
	cfg.ArtifactIn, cfg.ArtifactDelta = base, true
	cfg.OutDir = filepath.Join(blocker, "parts")
	j2, _, err := m.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2, 10*time.Second)
	if st, _ := m.Status(j2.ID); st.State != Failed || st.Artifact {
		t.Fatalf("delta job with a failing CC-I/O: %+v", st)
	}
	ents, err := os.ReadDir(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != filepath.Base(base) {
		t.Fatalf("store holds %v, want only the base %s", ents, filepath.Base(base))
	}
}
