package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"metaprep"
	"metaprep/internal/core"
	"metaprep/internal/index"
)

// freeAddr reserves then releases a loopback port for the daemon to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// buildIndexFile generates a small dataset and saves its index.
func buildIndexFile(t *testing.T, dir string) string {
	t.Helper()
	spec, err := metaprep.Preset("HG", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := metaprep.Generate(spec, filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(ds.Files, index.Options{K: 27, M: 10, ChunkSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ds.idx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// waitHealthy waits for the daemon at base to answer /healthz.
func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runJob submits body to the daemon at base and returns the state the
// job ends in.
func runJob(t *testing.T, base, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, data)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
		}
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		switch st.State {
		case "done", "failed", "cancelled":
			return st.State
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonLifecycle boots the daemon, submits a job over HTTP, waits for
// completion, then delivers SIGTERM and expects a graceful drain.
func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	idxPath := buildIndexFile(t, dir)
	addr := freeAddr(t)

	sigc := make(chan os.Signal, 2)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-workers", "2", "-progress", "20ms"}, sigc)
	}()

	base := "http://" + addr
	waitHealthy(t, base)
	if state := runJob(t, base, fmt.Sprintf(`{"index": %q, "tasks": 2, "threads": 2}`, idxPath)); state != "done" {
		t.Fatalf("job ended %s", state)
	}

	// Graceful shutdown on SIGTERM.
	sigc <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
}

// TestDaemonRestartSweep boots the daemon over directories a crashed
// predecessor left a leftover of every kind in — run scratch and a legacy
// per-job directory in the spill root, an artifact writer's temp and a
// legacy staging file in the store, a rebuild temp and a legacy lookup
// generation in the query tier's lookups/ — plus one unrelated file in
// each, and a staging-named directory in the spill root, which only the
// store ever used that name for. Every leftover goes, every
// unrelated file stays, and /metrics counts what the sweeps removed.
// Without a store the query tier lives in the spill root's lookups/, and
// its leftovers are swept there.
func TestDaemonRestartSweep(t *testing.T) {
	for _, withStore := range []bool{true, false} {
		name := "store"
		if !withStore {
			name = "spill-only"
		}
		t.Run(name, func(t *testing.T) { testRestartSweep(t, withStore) })
	}
}

func testRestartSweep(t *testing.T, withStore bool) {
	spill, store := t.TempDir(), t.TempDir()
	args := []string{"-spill-dir", spill, "-serve-key", "auto"}
	lookups := filepath.Join(spill, "lookups")
	leftovers := []string{
		filepath.Join(spill, "metaprep-run-x"),
		filepath.Join(spill, "job-j1"),
		filepath.Join(lookups, ".served.mplk.tmp-1"),
		filepath.Join(lookups, "p-x.4.mplk"),
	}
	unrelated := []string{
		filepath.Join(spill, "staging-x"),
		filepath.Join(spill, "notes.txt"),
		filepath.Join(lookups, "notes.txt"),
	}
	if withStore {
		args = append(args, "-artifact-dir", store)
		lookups = filepath.Join(store, "lookups")
		leftovers = append(leftovers[:2],
			filepath.Join(store, ".p-x.mpa.tmp-1"),
			filepath.Join(store, "staging-j2.mpa"),
			filepath.Join(lookups, ".served.mplk.tmp-1"),
			filepath.Join(lookups, "p-x.4.mplk"))
		unrelated = append(unrelated[:2],
			filepath.Join(store, "notes.txt"),
			filepath.Join(lookups, "notes.txt"))
	}
	for _, d := range []string{leftovers[0], leftovers[1], lookups, unrelated[0]} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range append(leftovers[2:], unrelated[1:]...) {
		if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	addr := freeAddr(t)
	sigc := make(chan os.Signal, 2)
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-addr", addr}, args...), sigc)
	}()
	base := "http://" + addr
	var metrics []byte
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/metrics")
		if err == nil {
			metrics, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never served /metrics: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	sigc <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}

	want := fmt.Sprintf("metaprepd_orphans_swept_total %d\n", len(leftovers))
	if !strings.Contains(string(metrics), want) {
		t.Errorf("/metrics lacks %q", want)
	}
	for _, p := range leftovers {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("leftover %s survived the boot sweep (stat err = %v)", p, err)
		}
	}
	for _, p := range unrelated {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("unrelated %s swept: %v", p, err)
		}
	}
}

// TestDaemonFreshSpillRoot boots the daemon on a spill root that does not
// exist yet: the daemon creates it, and a plain job and a spilling job,
// both of which keep their run scratch beneath it, end done and leave it
// empty.
func TestDaemonFreshSpillRoot(t *testing.T) {
	dir := t.TempDir()
	idxPath := buildIndexFile(t, dir)
	spill := filepath.Join(dir, "fresh", "spill")
	addr := freeAddr(t)
	sigc := make(chan os.Signal, 2)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-spill-dir", spill}, sigc)
	}()
	base := "http://" + addr
	waitHealthy(t, base)
	for _, body := range []string{
		fmt.Sprintf(`{"index": %q, "tasks": 2, "threads": 2}`, idxPath),
		fmt.Sprintf(`{"index": %q, "tasks": 2, "threads": 2, "spill_budget_bytes": %d}`, idxPath, core.MinSpillBudgetBytes),
	} {
		if state := runJob(t, base, body); state != "done" {
			t.Errorf("job %s ended %s", body, state)
		}
	}
	sigc <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}
	ents, err := os.ReadDir(spill)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("spill root holds %d entries after the jobs ended, want none", len(ents))
	}
}

func TestDaemonBadInvocation(t *testing.T) {
	if err := run([]string{"-bogus-flag"}, nil); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"trailing"}, nil); err == nil {
		t.Error("positional arguments accepted")
	}
	if err := run([]string{"-addr", "256.0.0.1:bad"}, nil); err == nil {
		t.Error("unbindable address accepted")
	}
}
