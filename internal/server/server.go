// Package server exposes the jobs.Manager as the metaprepd HTTP API: a
// partition-as-a-service front end with job submission, status, results,
// cancellation, per-step progress (polling and SSE), health/readiness
// probes, an obsv-backed /metrics endpoint and /debug/pprof.
//
// Endpoints:
//
//	POST   /jobs              submit a partition job (JSON body, below)
//	GET    /jobs              list jobs
//	GET    /jobs/{id}         job status + live progress counters
//	GET    /jobs/{id}/result  completed job's pipeline result
//	GET    /jobs/{id}/artifact  done job's stored partition artifact (.mpa)
//	GET    /artifacts         list the daemon's artifact store
//	POST   /query             batch k-mer / sequence label lookups against
//	                          the served partition (when a query tier is
//	                          configured; see QueryTier)
//	GET    /jobs/{id}/trace   flight-recorder dump (Perfetto trace JSON)
//	POST   /jobs/{id}/cancel  request cancellation
//	GET    /jobs/{id}/events  Server-Sent Events progress stream
//	GET    /healthz           liveness (always 200 while serving)
//	GET    /readyz            readiness (503 once draining)
//	GET    /metrics           gauges, latency histograms, drift ratios,
//	                          per-job obsv counters (Prometheus text format)
//	GET    /debug/pprof/      the standard pprof handlers
//
// Admission control surfaces as HTTP status codes: an invalid configuration
// is a 400 carrying the typed validation message, a full queue is a 429
// with Retry-After, and a draining server answers 503.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"metaprep/internal/core"
	"metaprep/internal/index"
	"metaprep/internal/jobs"
	"metaprep/internal/mpirt"
	"metaprep/internal/obsv"
)

// Options configures a Server.
type Options struct {
	// ProgressInterval is the SSE snapshot cadence (default 200 ms).
	ProgressInterval time.Duration
	// RetryAfter is the Retry-After hint returned with 429 (default 1 s).
	RetryAfter time.Duration
	// OrphansSwept is how many run scratch directories the daemon's
	// startup sweep of its spill root removed (core.SweepScratch);
	// /metrics exports it, plus what the artifact store's and the query
	// tier's own boot sweeps removed, as metaprepd_orphans_swept_total.
	OrphansSwept int
	// Logger receives request-level records (submissions, trace fetches),
	// stamped with the job correlation ID where one exists. Nil logs
	// nothing.
	Logger *slog.Logger
	// Query, when non-nil, enables POST /query backed by this tier and
	// adds the metaprepd_query_* families to /metrics. The caller owns the
	// tier's lifecycle (NewQueryTier / Close).
	Query *QueryTier
}

// Server is the HTTP front end over a jobs.Manager.
type Server struct {
	mgr  *jobs.Manager
	opts Options
	mux  *http.ServeMux
	// ready flips false when draining begins; /readyz reports it so a load
	// balancer stops routing new work while running jobs finish.
	ready atomic.Bool

	// idxMu guards the index cache: loaded indexes keyed by path, with the
	// file's (size, mtime) to spot rebuilt datasets.
	idxMu   sync.Mutex
	indexes map[string]*cachedIndex
}

type cachedIndex struct {
	idx   *index.Index
	size  int64
	mtime time.Time
}

// New wires a server around a manager.
func New(mgr *jobs.Manager, opts Options) *Server {
	if opts.ProgressInterval <= 0 {
		opts.ProgressInterval = 200 * time.Millisecond
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	s := &Server{mgr: mgr, opts: opts, indexes: make(map[string]*cachedIndex)}
	s.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/artifact", s.handleArtifact)
	mux.HandleFunc("GET /artifacts", s.handleArtifacts)
	if opts.Query != nil {
		mux.HandleFunc("POST /query", s.handleQuery)
	}
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// ServeHTTP makes Server an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// SubmitRequest is the POST /jobs body. Index is the path to an index file
// built with `metaprep index`; the rest mirror core.Config (zero values
// default to a single-task, single-pass run with CCOpt on, like
// core.Default).
type SubmitRequest struct {
	Index           string `json:"index"`
	Tasks           int    `json:"tasks"`
	Threads         int    `json:"threads"`
	Passes          int    `json:"passes"`
	KFMin           uint32 `json:"kf_min"`
	KFMax           uint32 `json:"kf_max"`
	CCOpt           *bool  `json:"ccopt"`
	SplitComponents int    `json:"split_components"`
	OutDir          string `json:"out_dir"`
	EdisonNet       bool   `json:"edison_net"`
	PrefetchChunks  int    `json:"prefetch_chunks"`
	// SpillBudgetBytes caps resident tuple memory per rank; when the
	// exchange would exceed it, LocalSort runs out of core via bin buckets
	// on disk. Scratch placement is the daemon's concern (-spill-dir), so
	// there is deliberately no spill_dir field here.
	SpillBudgetBytes int64 `json:"spill_budget_bytes"`
	// Artifact requires the daemon to persist this job's partition artifact
	// (400 when the daemon runs without -artifact-dir). With a store
	// configured the daemon persists and reuses artifacts for every job
	// anyway; the flag exists so a client that intends to fetch
	// /jobs/{id}/artifact or chain a delta fails fast on a storeless
	// daemon instead of discovering it after the run.
	Artifact bool `json:"artifact"`
	// DeltaOf names an earlier done job whose stored artifact becomes the
	// base of an incremental repartitioning: this job's index is treated as
	// a delta read set, merged into the base instead of recomputed from
	// scratch. The merged artifact is stored too, so deltas chain.
	DeltaOf string `json:"delta_of"`
}

// SubmitResponse answers POST /jobs.
type SubmitResponse struct {
	ID    string     `json:"id"`
	State jobs.State `json:"state"`
	// Deduped marks a submission coalesced onto an existing pending/running
	// job or satisfied from the result cache (no new execution started).
	Deduped  bool `json:"deduped"`
	CacheHit bool `json:"cache_hit"`
}

// errorBody is every error response's JSON shape.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// configFor resolves a submit request into a pipeline Config.
func (s *Server) configFor(req SubmitRequest) (core.Config, error) {
	if req.Index == "" {
		return core.Config{}, fmt.Errorf("missing required field: index")
	}
	idx, err := s.loadIndex(req.Index)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Default(idx)
	if req.Tasks > 0 {
		cfg.Tasks = req.Tasks
	}
	if req.Threads > 0 {
		cfg.Threads = req.Threads
	}
	if req.Passes > 0 {
		cfg.Passes = req.Passes
	}
	cfg.Filter = core.Filter{Min: req.KFMin, Max: req.KFMax}
	if req.CCOpt != nil {
		cfg.CCOpt = *req.CCOpt
	}
	cfg.SplitComponents = req.SplitComponents
	cfg.OutDir = req.OutDir
	cfg.PrefetchChunks = req.PrefetchChunks
	cfg.SpillBudgetBytes = req.SpillBudgetBytes
	if req.EdisonNet {
		cfg.Network = mpirt.EdisonNetwork()
	}
	if (req.Artifact || req.DeltaOf != "") && !s.mgr.ArtifactStoreEnabled() {
		return core.Config{}, fmt.Errorf("daemon has no artifact store (start metaprepd with -artifact-dir)")
	}
	if req.DeltaOf != "" {
		base, err := s.mgr.ArtifactPath(req.DeltaOf)
		if err != nil {
			return core.Config{}, fmt.Errorf("delta_of %s: %w", req.DeltaOf, err)
		}
		cfg.ArtifactIn = base
		cfg.ArtifactDelta = true
	}
	return cfg, nil
}

// loadIndex returns the cached index for path, reloading when the file on
// disk changed (size or mtime).
func (s *Server) loadIndex(path string) (*index.Index, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("index %s: %w", path, err)
	}
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if c := s.indexes[path]; c != nil && c.size == st.Size() && c.mtime.Equal(st.ModTime()) {
		return c.idx, nil
	}
	idx, err := index.Load(path)
	if err != nil {
		return nil, fmt.Errorf("index %s: %w", path, err)
	}
	if err := idx.Verify(); err != nil {
		return nil, err
	}
	s.indexes[path] = &cachedIndex{idx: idx, size: st.Size(), mtime: st.ModTime()}
	return idx, nil
}

// maxSubmitBody bounds the POST /jobs body; a submission is a few hundred
// bytes of JSON.
const maxSubmitBody = 1 << 20

// decodeBody decodes r's JSON body into v, rejecting unknown fields and any
// body over limit bytes. On failure it has answered 413 (too large) or 400
// and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	writeErr(w, code, fmt.Errorf("bad request body: %w", err))
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeBody(w, r, maxSubmitBody, &req) {
		return
	}
	cfg, err := s.configFor(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	job, fresh, err := s.mgr.Submit(cfg)
	switch {
	case errors.Is(err, core.ErrInvalidConfig):
		writeErr(w, http.StatusBadRequest, err)
		return
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int((s.opts.RetryAfter+time.Second-1)/time.Second)))
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, jobs.ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	st, _ := s.mgr.Status(job.ID)
	if lg := s.opts.Logger; lg != nil {
		// The correlation ID is born here: every later record for this job —
		// HTTP, jobs layer, pipeline ranks — carries the same "job" attr.
		lg.InfoContext(obsv.WithJobID(r.Context(), job.ID), "job submitted",
			"index", req.Index, "tasks", cfg.Tasks, "threads", cfg.Threads,
			"deduped", !fresh, "cache_hit", st.CacheHit)
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID: job.ID, State: st.State, Deduped: !fresh, CacheHit: st.CacheHit,
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Status(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := s.mgr.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, jobs.ErrNotDone):
		writeErr(w, http.StatusConflict, err)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

// handleArtifact streams a done job's partition artifact (.mpa bytes) —
// the file a client feeds back as delta_of's base, inspects with `metaprep
// artifact info`, or reloads locally with -artifact-in.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	path, err := s.mgr.ArtifactPath(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeErr(w, http.StatusNotFound, err)
		return
	case errors.Is(err, jobs.ErrNotDone):
		writeErr(w, http.StatusConflict, err)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="job-`+id+`.mpa"`)
	http.ServeFile(w, r, path)
}

// handleArtifacts lists the daemon's artifact store, newest first (404 when
// the daemon runs without one).
func (s *Server) handleArtifacts(w http.ResponseWriter, _ *http.Request) {
	if !s.mgr.ArtifactStoreEnabled() {
		writeErr(w, http.StatusNotFound, fmt.Errorf("daemon has no artifact store"))
		return
	}
	ents := s.mgr.Artifacts()
	if ents == nil {
		ents = []jobs.ArtifactEntry{}
	}
	writeJSON(w, http.StatusOK, ents)
}

// handleTrace serves a job's flight-recorder window as Chrome trace-event
// JSON (open it in Perfetto or chrome://tracing). Valid in any job state: a
// running job yields its window so far. The trace renders into a buffer
// first so an encoding failure still becomes a clean 500, not a torn body.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var buf bytes.Buffer
	err := s.mgr.WriteTrace(id, &buf)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeErr(w, http.StatusNotFound, err)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if lg := s.opts.Logger; lg != nil {
		lg.InfoContext(obsv.WithJobID(r.Context(), id), "trace fetched", "bytes", buf.Len())
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="job-`+id+`.trace.json"`)
	w.Write(buf.Bytes())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.mgr.Cancel(id); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	st, _ := s.mgr.Status(id)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.ready.Load() {
		fmt.Fprintln(w, "ready")
		return
	}
	http.Error(w, "draining", http.StatusServiceUnavailable)
}

// handleEvents streams job progress as Server-Sent Events: a "progress"
// event with the status JSON every ProgressInterval, then one final "state"
// event when the job reaches a terminal state (or the client disconnects).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, err := s.mgr.Get(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	send := func(event string) bool {
		st, err := s.mgr.Status(id)
		if err != nil {
			return false
		}
		data, err := json.Marshal(st)
		if err != nil {
			return false
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
		return true
	}
	ticker := time.NewTicker(s.opts.ProgressInterval)
	defer ticker.Stop()
	for {
		if !send("progress") {
			return
		}
		select {
		case <-job.Done():
			send("state")
			return
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

// Drain begins graceful shutdown: readiness flips to 503, admission stops,
// and the call blocks until every queued and running job finishes or ctx
// expires. The HTTP listener itself is shut down by the caller afterwards
// (cmd/metaprepd pairs this with http.Server.Shutdown).
func (s *Server) Drain(ctx context.Context) error {
	s.ready.Store(false)
	return s.mgr.Drain(ctx)
}
