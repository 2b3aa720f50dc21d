package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"time"

	"metaprep/internal/jobs"
	"metaprep/internal/server"
)

// queryRun is a live query tier behind a real loopback HTTP server plus the
// single closed-loop client that drives it.
type queryRun struct {
	e      *benchEnv
	qs     *querySet
	tier   *server.QueryTier
	mgr    *jobs.Manager
	srv    *httptest.Server
	client *http.Client
	url    string
	buf    bytes.Buffer

	hseed maphash.Seed
	want  []uint64 // hash of the exact response bytes expected per body
	next  int      // next body of the pool
}

const spanHeader = "X-Bench-Span"

func startQuery(e *benchEnv) (*queryRun, error) {
	q := &queryRun{e: e, qs: new(querySet), hseed: maphash.MakeSeed()}
	if err := readGob(e.dir.queries(), q.qs); err != nil {
		return nil, err
	}
	if e.o.fault == "ref-label" {
		// Seeded fault: one wrong expected label must fail the run.
		if q.qs.Reads {
			q.qs.Seqs[0][0].Label ^= 1
			q.qs.Seqs[0][0].Found = true
		} else {
			q.qs.Kmers[0][0].Label ^= 1
			q.qs.Kmers[0][0].Found = true
		}
	}
	sp := e.tr.begin(e.root, "lookup", "NewQueryTier (Build+Open)")
	tier, err := server.NewQueryTier(server.QueryOptions{Dir: e.dir.lookups(), Artifact: e.dir.artifact()})
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	q.tier = tier
	q.mgr = jobs.NewManager(jobs.Options{Workers: 1})
	var h http.Handler = server.New(q.mgr, server.Options{Query: tier})
	if tr := e.tr; tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
			if parent == 0 {
				inner.ServeHTTP(w, r)
				return
			}
			sp := tr.begin(parent, "server", "ServeHTTP")
			inner.ServeHTTP(w, r)
			tr.end(sp)
		})
	}
	q.srv = httptest.NewServer(h)
	q.url = q.srv.URL + "/query"
	// One client, one keep-alive connection.
	q.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}

	// The first response supplies the header fields (source, epoch, keys);
	// with them the exact bytes of every expected response are known.
	if _, err := q.post(0, 0); err != nil {
		q.close()
		return nil, err
	}
	var hdr server.QueryResponse
	if err := json.Unmarshal(q.buf.Bytes(), &hdr); err != nil {
		q.close()
		return nil, fmt.Errorf("first response: %w", err)
	}
	q.want = make([]uint64, len(q.qs.Bodies))
	for i := range q.qs.Bodies {
		resp := server.QueryResponse{Source: hdr.Source, Epoch: hdr.Epoch, K: hdr.K, Keys: hdr.Keys}
		if q.qs.Reads {
			resp.Sequences = q.qs.Seqs[i]
		} else {
			resp.Kmers = q.qs.Kmers[i]
		}
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			q.close()
			return nil, err
		}
		q.want[i] = maphash.Bytes(q.hseed, b.Bytes())
	}
	return q, nil
}

func (q *queryRun) close() {
	q.client.CloseIdleConnections()
	q.srv.Close()
	q.mgr.Stop()
	q.tier.Close()
}

// post sends body i and reads the full response into q.buf, returning the
// latency from send to last body byte. span, when non-zero, is the client
// span the server-side span hangs under.
func (q *queryRun) post(i, span int) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, q.url, bytes.NewReader(q.qs.Bodies[i]))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	q.buf.Reset()
	t0 := time.Now()
	resp, err := q.client.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(&q.buf, resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("POST /query: status %d: %s", resp.StatusCode, bytes.TrimSpace(q.buf.Bytes()))
	}
	return d, nil
}

// check verifies the response in q.buf against body i's expected answers:
// first by the hash of the exact bytes, and only if that differs by
// decoding, so a change of JSON layout alone is not a failure.
func (q *queryRun) check(i int) string {
	if maphash.Bytes(q.hseed, q.buf.Bytes()) == q.want[i] {
		return ""
	}
	var got server.QueryResponse
	if err := json.Unmarshal(q.buf.Bytes(), &got); err != nil {
		return fmt.Sprintf("body %d: undecodable response: %v", i, err)
	}
	if q.qs.Reads {
		if !slices.Equal(got.Sequences, q.qs.Seqs[i]) {
			return fmt.Sprintf("body %d: sequence answers differ from artifact.Reader's", i)
		}
	} else if !slices.Equal(got.Kmers, q.qs.Kmers[i]) {
		return fmt.Sprintf("body %d: k-mer answers differ from artifact.Reader's", i)
	}
	return ""
}

// request is one verified op.
func (q *queryRun) request(traced bool) (lat time.Duration, kmers int, err error) {
	i := q.next
	q.next = (q.next + 1) % len(q.qs.Bodies)
	var sp int
	if traced {
		sp = q.e.tr.begin(q.e.root, "client", "POST /query")
	}
	lat, err = q.post(i, sp)
	q.e.tr.end(sp)
	q.e.rep.attempted++
	if err != nil {
		q.e.rep.fail("%v", err)
		return lat, 0, nil
	}
	// After the latency timestamp.
	if msg := q.check(i); msg != "" {
		q.e.rep.fail("%s", msg)
	}
	return lat, q.qs.NKmers[i], nil
}

// prepareQuery finishes a set-up round for a query workload: tier build,
// expected responses, warm-up requests. One slice = one second of
// closed-loop requests.
func prepareQuery(e *benchEnv) (*prepared, error) {
	if e.prep.Artifact == nil {
		return nil, fmt.Errorf("set-up child wrote no artifact")
	}
	t0 := time.Now()
	q, err := startQuery(e)
	if err != nil {
		return nil, err
	}
	tierS := time.Since(t0).Seconds()

	// Warm-up: ~130 000 k-mers either way, enough to fault in the tier's
	// pools and the connection.
	warm, sliceLen := 500, time.Second
	if e.w.reads {
		warm = 100
	}
	if e.o.quick {
		warm, sliceLen = 20, 50*time.Millisecond
	}
	t0 = time.Now()
	for i := 0; i < warm; i++ {
		if _, _, err := q.request(false); err != nil {
			q.close()
			return nil, err
		}
	}
	p := &prepared{query: q, close: q.close}
	p.facts = []string{fmt.Sprintf(
		"served artifact: %d distinct k-mers, .mpa %.1f MiB, .mplk %.1f MiB (16 B/key; L2 is 4 MiB); pool of %d bodies",
		e.prep.ArtifactKeys, float64(e.prep.ArtifactSize)/(1<<20), float64(e.prep.ArtifactKeys)*16/(1<<20), len(q.qs.Bodies))}
	p.info = []metric{
		{"setup.tier_s", tierS, "s", "last round: NewQueryTier (lookup.Build + Open) and expected responses"},
		{"setup.warmup_s", time.Since(t0).Seconds(), "s", fmt.Sprintf("%d warm-up requests", warm)}}

	p.one = func(_ int, traced bool) (slice, error) {
		runtime.GC()
		s := slice{traced: traced}
		c0, t0 := cpuTime(), time.Now()
		for time.Since(t0) < sliceLen {
			lat, kmers, err := q.request(traced)
			if err != nil {
				return s, err
			}
			s.busy += lat
			s.kmers += uint64(kmers)
			s.ops = append(s.ops, lat)
		}
		s.cpu = cpuTime() - c0
		if s.kmers == 0 {
			return s, fmt.Errorf("no request succeeded in a slice")
		}
		return s, nil
	}
	return p, nil
}
