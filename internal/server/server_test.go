package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"metaprep/internal/core"
	"metaprep/internal/fastq"
	"metaprep/internal/index"
	"metaprep/internal/jobs"
)

// buildIndexFile writes a small overlapping-read dataset plus its saved
// index file, returning the index path.
func buildIndexFile(t *testing.T, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	genomes := make([][]byte, 3)
	for g := range genomes {
		genomes[g] = make([]byte, 300)
		for j := range genomes[g] {
			genomes[g][j] = "ACGT"[rng.Intn(4)]
		}
	}
	fq := filepath.Join(dir, "reads.fastq")
	f, err := os.Create(fq)
	if err != nil {
		t.Fatal(err)
	}
	w := fastq.NewWriter(f)
	const readLen = 40
	for i := 0; i < 150; i++ {
		g := genomes[rng.Intn(len(genomes))]
		pos := rng.Intn(len(g) - readLen)
		if err := w.Write(fastq.Record{
			ID:   []byte("r"),
			Seq:  g[pos : pos+readLen],
			Qual: bytes.Repeat([]byte("I"), readLen),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	idx, err := index.Build([]string{fq}, index.Options{K: 11, M: 4, ChunkSize: 1500})
	if err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, "reads.idx")
	if err := idx.Save(idxPath); err != nil {
		t.Fatal(err)
	}
	return idxPath
}

// newTestServer stands up a Server over a manager with the given options and
// registers cleanup.
func newTestServer(t *testing.T, mopts jobs.Options, sopts Options) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	mgr := jobs.NewManager(mopts)
	srv := httptest.NewServer(New(mgr, sopts))
	t.Cleanup(func() {
		srv.Close()
		mgr.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		mgr.Drain(ctx)
	})
	return srv, mgr
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp
}

// pollDone polls the status endpoint until the job is terminal.
func pollDone(t *testing.T, base, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st jobs.Status
		resp := getJSON(t, base+"/jobs/"+id, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d", id, resp.StatusCode)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubmitPollResultMatchesDirect is the headline e2e: a job submitted
// over HTTP produces byte-identical partition labels to calling the
// pipeline directly, and its status carries real per-step progress
// counters.
func TestSubmitPollResultMatchesDirect(t *testing.T) {
	idxPath := buildIndexFile(t, 11)
	srv, _ := newTestServer(t, jobs.Options{}, Options{})

	body := fmt.Sprintf(`{"index": %q, "tasks": 2, "threads": 2}`, idxPath)
	resp, data := postJSON(t, srv.URL+"/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, data)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Deduped || sub.CacheHit {
		t.Fatalf("first submission flagged deduped/cached: %+v", sub)
	}

	st := pollDone(t, srv.URL, sub.ID)
	if st.State != jobs.Done {
		t.Fatalf("job finished %s: %+v", st.State, st)
	}
	if len(st.Counters) == 0 {
		t.Fatalf("done job carries no progress counters")
	}

	var got core.Result
	if resp := getJSON(t, srv.URL+"/jobs/"+sub.ID+"/result", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %d", resp.StatusCode)
	}

	idx, err := index.Load(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Default(idx)
	cfg.Tasks, cfg.Threads = 2, 2
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Components != want.Components || got.Reads != want.Reads ||
		got.LargestSize != want.LargestSize || len(got.Labels) != len(want.Labels) {
		t.Fatalf("service result diverges: got {comps %d reads %d largest %d}, want {%d %d %d}",
			got.Components, got.Reads, got.LargestSize,
			want.Components, want.Reads, want.LargestSize)
	}
	for i := range got.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("labels diverge at read %d: %d vs %d", i, got.Labels[i], want.Labels[i])
		}
	}

	// Resubmitting the identical job is a cache hit: no re-execution,
	// immediately done.
	resp2, data2 := postJSON(t, srv.URL+"/jobs", body)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp2.StatusCode, data2)
	}
	var sub2 SubmitResponse
	if err := json.Unmarshal(data2, &sub2); err != nil {
		t.Fatal(err)
	}
	if !sub2.Deduped || !sub2.CacheHit || sub2.State != jobs.Done {
		t.Fatalf("resubmission not served from cache: %+v", sub2)
	}
	var cached core.Result
	getJSON(t, srv.URL+"/jobs/"+sub2.ID+"/result", &cached)
	if len(cached.Labels) != len(want.Labels) {
		t.Fatalf("cached result truncated: %d labels", len(cached.Labels))
	}
}

// TestSSEProgressStream checks the events endpoint emits periodic progress
// snapshots and a final state event.
func TestSSEProgressStream(t *testing.T) {
	idxPath := buildIndexFile(t, 12)
	release := make(chan struct{})
	srv, _ := newTestServer(t, jobs.Options{
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			cfg.Obs.Counter(0, "kmergen/chunks").Add(7)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return core.RunContext(ctx, cfg)
		},
	}, Options{ProgressInterval: 10 * time.Millisecond})

	_, data := postJSON(t, srv.URL+"/jobs", fmt.Sprintf(`{"index": %q}`, idxPath))
	var sub SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	var progressEvents int
	var sawCounter bool
	var finalState jobs.State
	var event string
	released := false
	deadline := time.After(10 * time.Second)
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
scan:
	for {
		var line string
		select {
		case l, ok := <-lines:
			if !ok {
				break scan
			}
			line = l
		case <-deadline:
			t.Fatal("SSE stream stalled")
		}
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var st jobs.Status
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				t.Fatalf("bad SSE payload %q: %v", line, err)
			}
			switch event {
			case "progress":
				progressEvents++
				for _, cv := range st.Counters {
					if cv.Name == "kmergen/chunks" && cv.Value == 7 {
						sawCounter = true
					}
				}
				// Let the job finish once we have seen live progress.
				if progressEvents >= 2 && !released {
					released = true
					close(release)
				}
			case "state":
				finalState = st.State
			}
		}
	}
	if progressEvents < 2 {
		t.Fatalf("saw %d progress events, want >= 2", progressEvents)
	}
	if !sawCounter {
		t.Fatalf("progress events never carried the runner's counter")
	}
	if finalState != jobs.Done {
		t.Fatalf("final SSE state = %q, want done", finalState)
	}
}

// TestCancelOverHTTP submits a job whose runner blocks until cancelled and
// checks POST /jobs/{id}/cancel brings it to cancelled within a second.
func TestCancelOverHTTP(t *testing.T) {
	idxPath := buildIndexFile(t, 13)
	srv, _ := newTestServer(t, jobs.Options{
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}, Options{})

	_, data := postJSON(t, srv.URL+"/jobs", fmt.Sprintf(`{"index": %q}`, idxPath))
	var sub SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	// Wait until running so cancellation exercises the context path.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st jobs.Status
		getJSON(t, srv.URL+"/jobs/"+sub.ID, &st)
		if st.State == jobs.Running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	cancelAt := time.Now()
	resp, body := postJSON(t, srv.URL+"/jobs/"+sub.ID+"/cancel", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST cancel: %d %s", resp.StatusCode, body)
	}
	st := pollDone(t, srv.URL, sub.ID)
	if st.State != jobs.Cancelled {
		t.Fatalf("state after cancel = %s", st.State)
	}
	if lat := time.Since(cancelAt); lat > time.Second {
		t.Fatalf("cancellation took %v, want <= 1s", lat)
	}
	if resp := getJSON(t, srv.URL+"/jobs/"+sub.ID+"/result", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of cancelled job: %d, want 409", resp.StatusCode)
	}
}

// TestAdmissionControl429 fills the single worker and the queue, then
// expects 429 + Retry-After on the next distinct submission.
func TestAdmissionControl429(t *testing.T) {
	idxPath := buildIndexFile(t, 14)
	release := make(chan struct{})
	srv, _ := newTestServer(t, jobs.Options{
		Workers:  1,
		QueueCap: 1,
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return &core.Result{}, nil
		},
	}, Options{RetryAfter: 3 * time.Second})
	defer close(release)

	submit := func(split int) (*http.Response, []byte) {
		return postJSON(t, srv.URL+"/jobs",
			fmt.Sprintf(`{"index": %q, "split_components": %d}`, idxPath, split))
	}
	resp, body := submit(1)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, body)
	}
	var first SubmitResponse
	json.Unmarshal(body, &first)
	// Wait for the worker to pick it up so the queue slot frees.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st jobs.Status
		getJSON(t, srv.URL+"/jobs/"+first.ID, &st)
		if st.State == jobs.Running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, body := submit(2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d %s", resp.StatusCode, body)
	}
	resp3, body3 := submit(3)
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit beyond capacity: %d %s, want 429", resp3.StatusCode, body3)
	}
	if ra := resp3.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
}

// TestErrorMapping covers the 400/404/409 paths.
func TestErrorMapping(t *testing.T) {
	idxPath := buildIndexFile(t, 15)
	srv, _ := newTestServer(t, jobs.Options{}, Options{})

	cases := []struct {
		name string
		body string
		want int
		// names, when set, must appear in the error message.
		names string
	}{
		{"malformed json", `{"index":`, http.StatusBadRequest, ""},
		{"unknown field", `{"index": "x", "bogus": 1}`, http.StatusBadRequest, "bogus"},
		// A path-selection field removed in PR 14 must be rejected by name,
		// not silently ignored: a client that asked for the reference merge
		// would otherwise get the default path and never know.
		{"removed field", fmt.Sprintf(`{"index": %q, "sparse_merge": true}`, idxPath), http.StatusBadRequest, "sparse_merge"},
		{"removed pointer field", fmt.Sprintf(`{"index": %q, "overlap_output": false}`, idxPath), http.StatusBadRequest, "overlap_output"},
		// Spill runs are always raw: a client asking for compression must
		// hear that the knob is gone.
		{"removed spill_compress", fmt.Sprintf(`{"index": %q, "spill_budget_bytes": 65536, "spill_compress": true}`, idxPath), http.StatusBadRequest, "spill_compress"},
		// The Bloom prefilter is gone; Filter.Min (kf_min) is the exact
		// frequency filter that replaces its lossy MinCount.
		{"removed prefilter_bits_per_kmer", fmt.Sprintf(`{"index": %q, "prefilter_bits_per_kmer": 8}`, idxPath), http.StatusBadRequest, "prefilter_bits_per_kmer"},
		{"removed prefilter_min_count", fmt.Sprintf(`{"index": %q, "prefilter_min_count": 2}`, idxPath), http.StatusBadRequest, "prefilter_min_count"},
		{"missing index", `{"tasks": 2}`, http.StatusBadRequest, ""},
		{"nonexistent index", `{"index": "/nope/missing.idx"}`, http.StatusBadRequest, ""},
		{"invalid filter", fmt.Sprintf(`{"index": %q, "kf_min": 9, "kf_max": 3}`, idxPath), http.StatusBadRequest, ""},
		{"negative split", fmt.Sprintf(`{"index": %q, "split_components": -1}`, idxPath), http.StatusBadRequest, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postJSON(t, srv.URL+"/jobs", c.body)
			if resp.StatusCode != c.want {
				t.Fatalf("POST %s: %d %s, want %d", c.body, resp.StatusCode, body, c.want)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q not {error: ...}", body)
			}
			if !strings.Contains(e.Error, c.names) {
				t.Fatalf("error %q does not name %q", e.Error, c.names)
			}
		})
	}

	if resp := getJSON(t, srv.URL+"/jobs/j999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status of unknown job: %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/jobs/j999/result", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("result of unknown job: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/jobs/j999/cancel", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel of unknown job: %d", resp.StatusCode)
	}
}

// TestHealthMetricsAndDrain covers the probe endpoints, the Prometheus
// rendering and drain semantics: readiness flips, submission answers 503,
// running work completes.
func TestHealthMetricsAndDrain(t *testing.T) {
	idxPath := buildIndexFile(t, 16)
	mgr := jobs.NewManager(jobs.Options{})
	s := New(mgr, Options{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	defer mgr.Stop()

	if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz: %d", resp.StatusCode)
	}

	// Run one real job so /metrics has job counters to render.
	_, data := postJSON(t, srv.URL+"/jobs", fmt.Sprintf(`{"index": %q}`, idxPath))
	var sub SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	pollDone(t, srv.URL, sub.ID)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"metaprepd_queue_capacity 16",
		"metaprepd_workers 1",
		"metaprepd_ready 1",
		`metaprepd_jobs{state="done"} 1`,
		"metaprepd_job_counter{job=\"" + sub.ID + "\"",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// pprof is wired.
	if resp := getJSON(t, srv.URL+"/debug/pprof/cmdline", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %d", resp.StatusCode)
	}

	// Drain: readiness flips, admission answers 503.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if resp := getJSON(t, srv.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/jobs", fmt.Sprintf(`{"index": %q, "tasks": 2}`, idxPath)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
}

// TestIndexCacheReload checks the server notices a rebuilt index file and
// treats it as different work.
func TestIndexCacheReload(t *testing.T) {
	idxPathA := buildIndexFile(t, 17)
	idxPathB := buildIndexFile(t, 18)
	srv, _ := newTestServer(t, jobs.Options{}, Options{})

	shared := filepath.Join(t.TempDir(), "shared.idx")
	cp := func(from string) {
		data, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shared, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Ensure a distinct mtime even on coarse filesystem clocks.
		old := time.Now().Add(-time.Duration(rand.Intn(1000)+1) * time.Second)
		if err := os.Chtimes(shared, old, old); err != nil {
			t.Fatal(err)
		}
	}

	cp(idxPathA)
	_, data := postJSON(t, srv.URL+"/jobs", fmt.Sprintf(`{"index": %q}`, shared))
	var subA SubmitResponse
	if err := json.Unmarshal(data, &subA); err != nil {
		t.Fatal(err)
	}
	pollDone(t, srv.URL, subA.ID)

	cp(idxPathB)
	_, data = postJSON(t, srv.URL+"/jobs", fmt.Sprintf(`{"index": %q}`, shared))
	var subB SubmitResponse
	if err := json.Unmarshal(data, &subB); err != nil {
		t.Fatal(err)
	}
	if subB.Deduped || subB.CacheHit {
		t.Fatalf("rebuilt index wrongly treated as cached work: %+v", subB)
	}
	st := pollDone(t, srv.URL, subB.ID)
	if st.State != jobs.Done {
		t.Fatalf("job on rebuilt index: %+v", st)
	}
}

// TestSubmitSpillKnobs checks the out-of-core fields flow from the request
// body into the pipeline config: an invalid budget is rejected at admission
// with a 400 naming the field, and a valid spill submission (per-job
// scratch under the manager's spill root) matches the in-RAM run.
func TestSubmitSpillKnobs(t *testing.T) {
	idxPath := buildIndexFile(t, 13)
	root := t.TempDir()
	srv, _ := newTestServer(t, jobs.Options{SpillDir: root}, Options{})

	// Below core.MinSpillBudgetBytes: rejected before a job exists.
	bad := fmt.Sprintf(`{"index": %q, "spill_budget_bytes": 1024}`, idxPath)
	resp, data := postJSON(t, srv.URL+"/jobs", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /jobs with tiny budget: %d %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "SpillBudgetBytes") {
		t.Fatalf("400 body does not name the offending field: %s", data)
	}

	body := fmt.Sprintf(
		`{"index": %q, "tasks": 2, "threads": 2, "spill_budget_bytes": %d}`,
		idxPath, core.MinSpillBudgetBytes)
	resp, data = postJSON(t, srv.URL+"/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, data)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if st := pollDone(t, srv.URL, sub.ID); st.State != jobs.Done {
		t.Fatalf("spill job finished %s: %+v", st.State, st)
	}
	var got core.Result
	if resp := getJSON(t, srv.URL+"/jobs/"+sub.ID+"/result", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %d", resp.StatusCode)
	}

	idx, err := index.Load(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Default(idx)
	cfg.Tasks, cfg.Threads = 2, 2
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Components != want.Components || len(got.Labels) != len(want.Labels) {
		t.Fatalf("spill result diverges: {comps %d labels %d}, want {%d %d}",
			got.Components, len(got.Labels), want.Components, len(want.Labels))
	}
	for i := range got.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("labels diverge at read %d: %d vs %d", i, got.Labels[i], want.Labels[i])
		}
	}
	// Terminal job: its per-job scratch under the spill root is gone.
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill root not empty after job done: %v", ents)
	}
}
