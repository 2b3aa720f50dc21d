package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"metaprep/internal/artifact"
	"metaprep/internal/core"
	"metaprep/internal/index"
	"metaprep/internal/jobs"
	"metaprep/internal/kmer"
)

const queryTestK = 21

// writeQueryArtifact synthesizes a partition artifact whose keys come from
// real k-mer strings, so HTTP queries can be issued as sequence text and
// verified against the labels written here. The same seed yields the same
// k-mer set, so two artifacts with different labelBase are swap-detectable.
func writeQueryArtifact(t testing.TB, path string, labelBase uint32, seed int64) (kmers []string, labels []uint32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type keyed struct {
		key uint64
		s   string
	}
	var ks []keyed
	seen := map[uint64]bool{}
	for len(ks) < 60 {
		b := make([]byte, queryTestK)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
		}
		m, ok := kmer.Encode64(b)
		if !ok {
			t.Fatal("encode failed")
		}
		key := uint64(kmer.Canonical64(m, queryTestK))
		if seen[key] {
			continue
		}
		seen[key] = true
		ks = append(ks, keyed{key, string(b)})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })

	w, err := artifact.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.BeginKmers(false, false, 512); err != nil {
		t.Fatal(err)
	}
	for i, e := range ks {
		if err := w.Tuple(0, e.key, uint32(i)); err != nil {
			t.Fatal(err)
		}
		kmers = append(kmers, e.s)
		labels = append(labels, labelBase+uint32(i))
	}
	if err := w.EndKmers(); err != nil {
		t.Fatal(err)
	}
	if err := w.Labels(labels); err != nil {
		t.Fatal(err)
	}
	hist := make([]uint64, 4)
	hist[1] = uint64(len(ks)) // every key has exactly one tuple
	if err := w.Hist(hist); err != nil {
		t.Fatal(err)
	}
	err = w.Finish(artifact.Meta{
		Kind: artifact.KindPartition, K: queryTestK, M: 8,
		Reads: uint32(len(ks)), FilterMin: 1, IndexDigest: "query-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return kmers, labels
}

// absentKmer finds a k-mer string whose canonical key is not in the
// artifact, so miss paths can be exercised without false hits.
func absentKmer(t *testing.T, present []string) string {
	t.Helper()
	seen := map[uint64]bool{}
	for _, s := range present {
		m, _ := kmer.Encode64([]byte(s))
		seen[uint64(kmer.Canonical64(m, queryTestK))] = true
	}
	rng := rand.New(rand.NewSource(999))
	for tries := 0; tries < 1000; tries++ {
		b := make([]byte, queryTestK)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
		}
		m, _ := kmer.Encode64(b)
		if !seen[uint64(kmer.Canonical64(m, queryTestK))] {
			return string(b)
		}
	}
	t.Fatal("could not find absent k-mer")
	return ""
}

func waitSwaps(t *testing.T, tier *QueryTier, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tier.swaps.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("tier never reached %d swaps (at %d)", want, tier.swaps.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestQueryEndpoint is the query-tier e2e: serve an artifact, answer k-mer
// and sequence batches over HTTP with labels verified against what the
// artifact recorded, report siblings from the histogram, reject malformed
// requests, and hot-swap to a newer artifact committed under the followed
// key without dropping a query.
func TestQueryEndpoint(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.mpa")
	pathB := filepath.Join(dir, "b.mpa")
	kms, labsA := writeQueryArtifact(t, pathA, 0, 7)
	_, labsB := writeQueryArtifact(t, pathB, 10000, 7)

	tier, err := NewQueryTier(QueryOptions{
		Dir:      filepath.Join(dir, "serve"),
		Artifact: pathA,
		Key:      "p-test.mpa",
		MaxBatch: 16, MaxConcurrent: 4, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tier.Close)
	srv, _ := newTestServer(t, jobs.Options{Workers: 1}, Options{Query: tier})

	// K-mer batch with siblings: labels must match the artifact's, every
	// key has multiplicity 1, and its sibling count is nkeys-1.
	miss := absentKmer(t, kms)
	body := fmt.Sprintf(`{"kmers":[%q,%q,%q,%q],"siblings":true}`, kms[0], kms[7], kms[59], miss)
	resp, data := postJSON(t, srv.URL+"/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: %d %s", resp.StatusCode, data)
	}
	var qr QueryResponse
	mustUnmarshal(t, data, &qr)
	if qr.K != queryTestK || qr.Keys != uint64(len(kms)) || qr.Epoch != 1 {
		t.Fatalf("response header wrong: %+v", qr)
	}
	wantLabels := []uint32{labsA[0], labsA[7], labsA[59]}
	for i, want := range wantLabels {
		a := qr.Kmers[i]
		if !a.Found || a.Label != want || a.Count != 1 {
			t.Fatalf("kmers[%d] = %+v, want label %d count 1", i, a, want)
		}
		if a.Siblings != uint64(len(kms)-1) {
			t.Fatalf("kmers[%d].Siblings = %d, want %d", i, a.Siblings, len(kms)-1)
		}
	}
	if qr.Kmers[3].Found {
		t.Fatalf("absent k-mer reported found: %+v", qr.Kmers[3])
	}

	// Sequence path: a sequence that IS one stored k-mer resolves to its
	// label; an unknown sequence misses on every window.
	body = fmt.Sprintf(`{"sequences":[%q,%q]}`, kms[3], miss)
	resp, data = postJSON(t, srv.URL+"/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query sequences: %d %s", resp.StatusCode, data)
	}
	qr = QueryResponse{}
	mustUnmarshal(t, data, &qr)
	if s := qr.Sequences[0]; !s.Found || s.Label != labsA[3] || s.Kmers != 1 || s.Hits != 1 {
		t.Fatalf("sequence[0] = %+v, want label %d", s, labsA[3])
	}
	if s := qr.Sequences[1]; s.Found || s.Hits != 0 {
		t.Fatalf("sequence[1] = %+v, want miss", s)
	}

	// Malformed requests map to 400: wrong k, invalid base, empty batch,
	// oversized batch.
	for _, bad := range []string{
		`{"kmers":["ACGT"]}`,
		fmt.Sprintf(`{"kmers":[%q]}`, strings.Repeat("N", queryTestK)),
		`{}`,
		fmt.Sprintf(`{"kmers":[%s]}`, strings.Repeat(fmt.Sprintf("%q,", kms[0]), 16)+fmt.Sprintf("%q", kms[0])),
	} {
		resp, data := postJSON(t, srv.URL+"/query", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad body %s: got %d %s, want 400", bad[:min(len(bad), 40)], resp.StatusCode, data)
		}
	}

	// Metrics: query families present, histogram observed our requests.
	resp, data = postJSON(t, srv.URL+"/query", fmt.Sprintf(`{"kmers":[%q]}`, kms[1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query: %d", resp.StatusCode)
	}
	mresp := getJSON(t, srv.URL+"/metrics", nil)
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", mresp.StatusCode)
	}
	mbody := getBody(t, srv.URL+"/metrics")
	for _, want := range []string{
		"metaprepd_query_seconds_bucket", "metaprepd_queries_total",
		"metaprepd_query_lookup_keys 60", "metaprepd_query_swaps_total 1",
	} {
		if !strings.Contains(mbody, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// Hot swap: committing under the followed key republishes; the same
	// query then answers with artifact B's labels and epoch 2. A commit
	// under an unrelated name must not swap.
	tier.ArtifactCommitted("p-other.mpa", pathA)
	tier.ArtifactCommitted("p-test.mpa", pathB)
	waitSwaps(t, tier, 2)
	resp, data = postJSON(t, srv.URL+"/query", fmt.Sprintf(`{"kmers":[%q]}`, kms[5]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap query: %d %s", resp.StatusCode, data)
	}
	qr = QueryResponse{}
	mustUnmarshal(t, data, &qr)
	if qr.Epoch != 2 || qr.Kmers[0].Label != labsB[5] {
		t.Fatalf("post-swap answer = %+v, want epoch 2 label %d", qr, labsB[5])
	}
}

// FuzzQueryBody drives arbitrary bytes through POST /query against a small
// served artifact. Whatever the body, the handler must not panic and must
// answer 200, 400 or 413: a malformed body is the client's fault, never a
// 5xx.
func FuzzQueryBody(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "q.mpa")
	kms, _ := writeQueryArtifact(f, path, 0, 7)
	tier, err := NewQueryTier(QueryOptions{
		Dir: filepath.Join(dir, "serve"), Artifact: path,
		MaxBatch: 16, MaxConcurrent: 4, Workers: 2,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(tier.Close)
	mgr := jobs.NewManager(jobs.Options{Workers: 1})
	f.Cleanup(mgr.Stop)
	h := New(mgr, Options{Query: tier})

	f.Add([]byte(fmt.Sprintf(`{"kmers":[%q,%q],"siblings":true}`, kms[0], kms[1])))
	f.Add([]byte(fmt.Sprintf(`{"sequences":[%q]}`, kms[2]+kms[3])))
	f.Add([]byte(fmt.Sprintf(`{"kmers":[%q],"bogus":1}`, kms[0])))
	f.Add([]byte(fmt.Sprintf(`{"kmers":[%q]}`, kms[0][:queryTestK-1])))
	f.Add([]byte(fmt.Sprintf(`{"kmers":[%q`, kms[0])))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("POST /query %q: status %d %s", body, rec.Code, rec.Body.Bytes())
		}
	})
}

// TestQueryTierAutoKey: with Key "auto" and no initial artifact, the tier
// answers 503 until the first committed partition artifact is adopted, then
// follows that name only.
func TestQueryTierAutoKey(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.mpa")
	_, labsA := writeQueryArtifact(t, pathA, 500, 7)
	kms, _ := writeQueryArtifact(t, filepath.Join(dir, "same.mpa"), 0, 7)

	tier, err := NewQueryTier(QueryOptions{Dir: filepath.Join(dir, "serve"), Key: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tier.Close)

	if _, code, err := tier.Execute(QueryRequest{Kmers: kms[:1]}); code != http.StatusServiceUnavailable || err == nil {
		t.Fatalf("expected 503 before first artifact, got %d %v", code, err)
	}
	// Incremental artifacts never get adopted.
	followed := func() string {
		tier.keyMu.Lock()
		defer tier.keyMu.Unlock()
		return tier.key
	}
	tier.ArtifactCommitted("i-job1.mpa", pathA)
	if k := followed(); k != "auto" {
		t.Fatalf("adopted incremental artifact: key %q", k)
	}
	tier.ArtifactCommitted("p-first.mpa", pathA)
	if k := followed(); k != "p-first.mpa" {
		t.Fatalf("key = %q, want p-first.mpa", k)
	}
	waitSwaps(t, tier, 1)
	resp, code, err := tier.Execute(QueryRequest{Kmers: kms[:1]})
	if err != nil {
		t.Fatalf("execute after adoption: %d %v", code, err)
	}
	if !resp.Kmers[0].Found || resp.Kmers[0].Label != labsA[0] {
		t.Fatalf("answer = %+v, want label %d", resp.Kmers[0], labsA[0])
	}
}

// TestQueryTierRestartKeepsOneFile swaps the served lookup several times,
// closes the tier and starts a new one on the same Dir: Dir holds one
// .mplk, and the new tier's boot sweep removes a rebuild temp a dead
// process left and a generation an earlier release built, reporting
// both, while an unrelated file survives. A lookup served in place from
// Dir is never swept, whatever its name.
func TestQueryTierRestartKeepsOneFile(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "a.mpa"), filepath.Join(dir, "b.mpa")}
	writeQueryArtifact(t, paths[0], 0, 7)
	writeQueryArtifact(t, paths[1], 100, 7)
	opts := QueryOptions{Dir: filepath.Join(dir, "serve"), Artifact: paths[0], Key: "p-test.mpa"}
	tier, err := NewQueryTier(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		tier.ArtifactCommitted("p-test.mpa", paths[i%2])
		waitSwaps(t, tier, uint64(i+1))
	}
	tier.Close()

	temp := filepath.Join(opts.Dir, ".served.mplk.tmp-1")
	legacy := filepath.Join(opts.Dir, "p-test.4.mplk")
	notes := filepath.Join(opts.Dir, "notes.txt")
	for _, p := range []string{temp, legacy, notes} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tier, err = NewQueryTier(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tier.Close)
	if tier.swept != 2 {
		t.Errorf("boot sweep removed %d files, want 2", tier.swept)
	}
	files, err := filepath.Glob(filepath.Join(opts.Dir, "*.mplk"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("Dir holds %v after a restart, want one .mplk", files)
	}
	if _, err := os.Stat(temp); !os.IsNotExist(err) {
		t.Errorf("rebuild temp survived the boot sweep (stat err = %v)", err)
	}
	if _, err := os.Stat(notes); err != nil {
		t.Errorf("unrelated file swept: %v", err)
	}

	served, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	inPlace := filepath.Join(opts.Dir, "keep.7.mplk")
	if err := os.WriteFile(inPlace, served, 0o644); err != nil {
		t.Fatal(err)
	}
	third, err := NewQueryTier(QueryOptions{Dir: opts.Dir, Artifact: inPlace})
	if err != nil {
		t.Fatalf("serving a lookup in place from Dir: %v", err)
	}
	third.Close()
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// TestQueryMatchesPartition checks POST /query against the pipeline's own
// partition: a real 2-task run writes an artifact, the tier serves it, and
// four concurrent clients ask for every distinct k-mer in batches of 16 and
// of 256. Every k-mer must be found, with the label Result.Labels gives the
// reads that hold it and the count of its run in the artifact's stream.
func TestQueryMatchesPartition(t *testing.T) {
	idx, err := index.Load(buildIndexFile(t, 47))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := core.Default(idx)
	cfg.Tasks, cfg.Threads = 2, 2
	cfg.ArtifactOut = filepath.Join(dir, "run.mpa")
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The reference: each distinct k-mer once, with the pipeline's label for
	// the reads in its run (they must agree) and the run's length.
	type want struct {
		kmer         string
		label, count uint32
	}
	var refs []want
	ar, err := artifact.Open(cfg.ArtifactOut)
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	st, err := ar.Kmers()
	if err != nil {
		t.Fatal(err)
	}
	k := ar.Meta().K
	for {
		_, lo, read, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		km := kmer.String64(kmer.Kmer64(lo), k)
		if n := len(refs); n > 0 && refs[n-1].kmer == km {
			if label := res.Labels[read]; label != refs[n-1].label {
				t.Fatalf("k-mer %s: reads in components %d and %d", km, refs[n-1].label, label)
			}
			refs[n-1].count++
			continue
		}
		refs = append(refs, want{km, res.Labels[read], 1})
	}
	const clients, maxBatch = 4, 256
	if len(refs) <= (clients-1)*maxBatch {
		t.Fatalf("only %d distinct k-mers: some client would get no batch of %d", len(refs), maxBatch)
	}

	tier, err := NewQueryTier(QueryOptions{Dir: filepath.Join(dir, "lookups"), Artifact: cfg.ArtifactOut})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	srv, _ := newTestServer(t, jobs.Options{Workers: 1}, Options{Query: tier})

	for _, batch := range []int{16, maxBatch} {
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Client c asks batches c, c+clients, c+2·clients, …
				for lo := c * batch; lo < len(refs); lo += clients * batch {
					part := refs[lo:min(lo+batch, len(refs))]
					req := QueryRequest{}
					for _, r := range part {
						req.Kmers = append(req.Kmers, r.kmer)
					}
					body, _ := json.Marshal(req)
					resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					var qr QueryResponse
					err = json.NewDecoder(resp.Body).Decode(&qr)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK || len(qr.Kmers) != len(part) {
						t.Errorf("batch %d at %d: status %d, %d answers, err %v", batch, lo, resp.StatusCode, len(qr.Kmers), err)
						return
					}
					for i, a := range qr.Kmers {
						if r := part[i]; !a.Found || a.Label != r.label || a.Count != r.count {
							t.Errorf("batch %d: %s answered %+v, want label %d count %d", batch, r.kmer, a, r.label, r.count)
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}
