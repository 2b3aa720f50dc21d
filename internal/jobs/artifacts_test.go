package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"metaprep/internal/artifact"
	"metaprep/internal/core"
)

func TestResultCacheBytes(t *testing.T) {
	mkRes := func(reads int) *core.Result {
		return &core.Result{Labels: make([]uint32, reads)}
	}
	// Each result ≈ 4 KiB of labels + 512 overhead; budget fits two.
	c := newResultCache(64, 10_000)
	c.put("a", mkRes(1024))
	c.put("b", mkRes(1024))
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	wantBytes := int64(2 * (1024*4 + 512))
	if c.residentBytes() != wantBytes {
		t.Fatalf("bytes = %d, want %d", c.residentBytes(), wantBytes)
	}
	// A third entry breaches the budget: the LRU ("a") goes.
	c.put("c", mkRes(1024))
	if c.len() != 2 || c.get("a") != nil {
		t.Fatalf("after byte eviction: len=%d, a=%v", c.len(), c.get("a"))
	}
	if c.get("b") == nil || c.get("c") == nil {
		t.Fatal("recent entries evicted")
	}
	// An entry larger than the whole budget is not retained.
	c.put("huge", mkRes(1<<20))
	if c.get("huge") != nil {
		t.Fatal("over-budget entry was retained")
	}
	if c.residentBytes() < 0 {
		t.Fatalf("bytes went negative: %d", c.residentBytes())
	}
}

// artifactRunner fakes a pipeline run that honors the artifact fields: it
// writes a token file at ArtifactOut and flags reloads via the result's
// Tuples (1 = reload, 0 = computed).
func artifactRunner(runs, reloads *atomic.Int64, failReload error) Runner {
	return func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		runs.Add(1)
		if cfg.ArtifactIn != "" && !cfg.ArtifactDelta {
			if _, err := os.Stat(cfg.ArtifactIn); err != nil {
				return nil, fmt.Errorf("runner: artifact missing: %w", artifact.ErrBadArtifact)
			}
			if failReload != nil {
				return nil, failReload
			}
			reloads.Add(1)
			return &core.Result{Tuples: 1}, nil
		}
		if cfg.ArtifactOut != "" {
			if err := os.WriteFile(cfg.ArtifactOut, []byte("artifact"), 0o644); err != nil {
				return nil, err
			}
		}
		return &core.Result{}, nil
	}
}

func TestArtifactStoreReloadAcrossShapes(t *testing.T) {
	dir := t.TempDir()
	var runs, reloads atomic.Int64
	m := NewManager(Options{
		ArtifactDir: dir,
		Runner:      artifactRunner(&runs, &reloads, nil),
	})
	defer m.Stop()

	cfg := testConfig()
	j1, _, err := m.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1, 5*time.Second)
	st, _ := m.Status(j1.ID)
	if st.State != Done || st.ArtifactReload || !st.Artifact {
		t.Fatalf("first job: %+v", st)
	}
	if p, err := m.ArtifactPath(j1.ID); err != nil || !strings.HasPrefix(filepath.Base(p), "p-") {
		t.Fatalf("ArtifactPath: %q, %v", p, err)
	}

	// A different shape is a different cache key but the same artifact key:
	// the second job reloads instead of recomputing.
	cfg2 := testConfig()
	cfg2.Tasks = 2
	j2, fresh, err := m.Submit(cfg2)
	if err != nil || !fresh {
		t.Fatalf("second submit: fresh=%v err=%v", fresh, err)
	}
	waitDone(t, j2, 5*time.Second)
	st2, _ := m.Status(j2.ID)
	if st2.State != Done || !st2.ArtifactReload {
		t.Fatalf("second job: %+v", st2)
	}
	if reloads.Load() != 1 {
		t.Fatalf("reloads = %d, want 1", reloads.Load())
	}
	// A different filter is a different artifact key: computed, not reloaded.
	cfg3 := testConfig()
	cfg3.Filter = core.Filter{Min: 2}
	j3, _, err := m.Submit(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j3, 5*time.Second)
	if st3, _ := m.Status(j3.ID); st3.ArtifactReload {
		t.Fatalf("filtered job reloaded the unfiltered artifact: %+v", st3)
	}

	stats := m.StatsSnapshot()
	if stats.ArtifactEntries != 2 || stats.ArtifactHits != 1 || stats.ArtifactBytes == 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if len(m.Artifacts()) != 2 {
		t.Fatalf("Artifacts() = %v", m.Artifacts())
	}
}

func TestArtifactStoreDropsBadArtifact(t *testing.T) {
	dir := t.TempDir()
	var runs, reloads atomic.Int64
	bad := fmt.Errorf("reload: %w", artifact.ErrBadArtifact)
	var failReload atomic.Pointer[error]
	failReload.Store(&bad)
	m := NewManager(Options{
		ArtifactDir: dir,
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			var fe error
			if p := failReload.Load(); p != nil {
				fe = *p
			}
			return artifactRunner(&runs, &reloads, fe)(ctx, cfg)
		},
	})
	defer m.Stop()

	j1, _, _ := m.Submit(testConfig())
	waitDone(t, j1, 5*time.Second)

	// Corrupt-on-reload: the job falls back to recompute and still succeeds,
	// and the store entry is replaced.
	cfg2 := testConfig()
	cfg2.Tasks = 2
	j2, _, err := m.Submit(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2, 5*time.Second)
	st2, _ := m.Status(j2.ID)
	if st2.State != Done || st2.ArtifactReload {
		t.Fatalf("fallback job: %+v", st2)
	}
	if reloads.Load() != 0 {
		t.Fatalf("reloads = %d, want 0", reloads.Load())
	}
	if !st2.Artifact {
		t.Fatal("fallback job did not re-emit the artifact")
	}

	// The re-emitted artifact serves the next submission.
	var noFail *error
	failReload.Store(noFail)
	cfg3 := testConfig()
	cfg3.Tasks = 4
	j3, _, _ := m.Submit(cfg3)
	waitDone(t, j3, 5*time.Second)
	if st3, _ := m.Status(j3.ID); !st3.ArtifactReload {
		t.Fatalf("third job: %+v", st3)
	}
}

func TestArtifactStoreEviction(t *testing.T) {
	dir := t.TempDir()
	st, err := newArtifactStore(nil, dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, size int) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
		if !st.admit(p) {
			t.Fatalf("admit(%s) found no file", p)
		}
		return p
	}
	a := write("p-a.mpa", 60)
	// mtime granularity: make a strictly older.
	old := time.Now().Add(-time.Minute)
	os.Chtimes(a, old, old)
	write("p-b.mpa", 60) // over budget: a (oldest) evicted
	if _, err := os.Stat(a); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("oldest entry not evicted (stat err = %v)", err)
	}
	// A single entry larger than the budget is kept (it was just committed).
	c := write("p-c.mpa", 500)
	if _, err := os.Stat(c); err != nil {
		t.Fatalf("just-committed entry evicted: %v", err)
	}
	entries, bytes, _, _ := st.stats()
	if entries != 1 || bytes != 500 {
		t.Fatalf("entries=%d bytes=%d", entries, bytes)
	}
}

// TestArtifactStoreCommitOntoDirectoryLeavesNoTemp makes the store's one
// commit — artifact.Writer.Finish onto a store path — fail at the rename:
// Finish must return the error and leave no temp file in the store.
func TestArtifactStoreCommitOntoDirectoryLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	if _, err := newArtifactStore(nil, dir, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "p-a.mpa")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := artifact.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.Finish(artifact.Meta{Kind: artifact.KindPartition}); err == nil {
		t.Fatal("commit onto a directory succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "p-a.mpa" || !ents[0].IsDir() {
		t.Errorf("after a failed commit the store holds %v, want only p-a.mpa/", ents)
	}
}

// TestArtifactStoreListOrder pins the /artifacts listing contract: newest
// first by the LRU mtime clock, name-ordered within equal timestamps, and
// every entry carrying size and a non-zero last-access time.
func TestArtifactStoreListOrder(t *testing.T) {
	dir := t.TempDir()
	st, err := newArtifactStore(nil, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, size int) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
		st.admit(p)
		return p
	}
	// c and b share one timestamp (name breaks the tie), a is strictly
	// newer and must list first.
	now := time.Now().Truncate(time.Second)
	old := now.Add(-time.Minute)
	pc := write("p-c.mpa", 3)
	pb := write("p-b.mpa", 2)
	pa := write("p-a.mpa", 1)
	os.Chtimes(pc, old, old)
	os.Chtimes(pb, old, old)
	os.Chtimes(pa, now, now)

	got := st.list()
	if len(got) != 3 {
		t.Fatalf("list() = %d entries", len(got))
	}
	wantNames := []string{"p-a.mpa", "p-b.mpa", "p-c.mpa"}
	wantBytes := []int64{1, 2, 3}
	for i := range got {
		if got[i].Name != wantNames[i] || got[i].Bytes != wantBytes[i] {
			t.Fatalf("list()[%d] = %+v, want %s/%d bytes", i, got[i], wantNames[i], wantBytes[i])
		}
		if got[i].LastAccess.IsZero() || got[i].ModTime.IsZero() {
			t.Fatalf("list()[%d] missing timestamps: %+v", i, got[i])
		}
	}
	// A second call returns the identical order — the listing is
	// deterministic, not directory-order dependent.
	again := st.list()
	for i := range again {
		if again[i].Name != got[i].Name {
			t.Fatalf("list() unstable at %d: %s vs %s", i, again[i].Name, got[i].Name)
		}
	}
}

func TestArtifactPathEvicted(t *testing.T) {
	dir := t.TempDir()
	var runs, reloads atomic.Int64
	m := NewManager(Options{ArtifactDir: dir, Runner: artifactRunner(&runs, &reloads, nil)})
	defer m.Stop()
	j, _, _ := m.Submit(testConfig())
	waitDone(t, j, 5*time.Second)
	p, err := m.ArtifactPath(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	os.Remove(p)
	if _, err := m.ArtifactPath(j.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("after eviction: err = %v, want ErrNotDone", err)
	}
	if _, err := m.ArtifactPath("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown job: err = %v, want ErrNotFound", err)
	}
}

func TestIncrementalJobArtifact(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(t.TempDir(), "base.mpa")
	if err := os.WriteFile(base, []byte("base"), 0o644); err != nil {
		t.Fatal(err)
	}
	var runs, reloads atomic.Int64
	m := NewManager(Options{ArtifactDir: dir, Runner: artifactRunner(&runs, &reloads, nil)})
	defer m.Stop()

	cfg := testConfig()
	cfg.ArtifactIn = base
	cfg.ArtifactDelta = true
	j, _, err := m.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 5*time.Second)
	st, _ := m.Status(j.ID)
	if st.State != Done || !st.Artifact || st.ArtifactReload {
		t.Fatalf("incremental job: %+v", st)
	}
	p, err := m.ArtifactPath(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p) != "i-"+j.ID+".mpa" {
		t.Fatalf("incremental artifact name: %s", filepath.Base(p))
	}
}

// TestArtifactStoreSweepsStaging plants a staging file an earlier release
// left behind and an artifact writer's temp abandoned mid-write — an
// artifact.Writer on a store path dropped without Finish or Abort, as a
// daemon that dies mid-run leaves it — and reopens the store: both are
// swept and reported, and an unrelated file survives.
func TestArtifactStoreSweepsStaging(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "staging-j9.mpa")
	keep := filepath.Join(dir, "notes.txt")
	for _, p := range []string{stale, keep} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := artifact.Create(filepath.Join(dir, artifactKey(testConfig()))); err != nil {
		t.Fatal(err)
	}
	st, err := newArtifactStore(nil, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.swept != 2 {
		t.Fatalf("swept %d files, want the temp and the staging file", st.swept)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "notes.txt" {
		t.Fatalf("store after the boot sweep holds %v, want only notes.txt", ents)
	}
}
