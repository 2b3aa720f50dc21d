// Command metaprepd runs the METAPREP pipeline as a resident service: a
// partition-as-a-service daemon with a bounded job queue, a worker pool, a
// content-addressed result cache and cancellation.
//
//	metaprepd -addr :8077 -workers 2 -queue 16
//
// Submit work by POSTing a JSON body naming an index file built with
// `metaprep index`:
//
//	curl -s localhost:8077/jobs -d '{"index":"ds.idx","tasks":2,"threads":2}'
//
// then poll /jobs/{id}, stream /jobs/{id}/events (SSE), fetch
// /jobs/{id}/result or /jobs/{id}/trace (the flight-recorder dump), or
// POST /jobs/{id}/cancel. /healthz, /readyz, /metrics and /debug/pprof
// serve operations.
//
// With -artifact-dir the daemon keeps a persistent partition artifact
// store: completed jobs park their .mpa artifact keyed by index digest and
// frequency filter, later submissions with the same key are served by
// artifact reload instead of recomputation, `"delta_of": "jN"` submissions
// merge a delta read set into job N's stored artifact incrementally, GET
// /artifacts lists the store and GET /jobs/{id}/artifact streams a job's
// artifact bytes.
//
// With -serve-artifact and/or -serve-key the daemon also runs the
// high-QPS query tier: POST /query answers batches of k-mers or raw
// sequences with component labels from a memory-mapped sharded lookup
// built out of a partition artifact, and every artifact the store commits
// under the followed key is rebuilt and hot-swapped in without dropping
// in-flight queries (-serve-key auto adopts the first committed
// partition). Query latency exports as metaprepd_query_seconds.
//
// Every job runs with a bounded flight recorder; -trace-dir and -trace-slo
// dump a failing or slow job's trace automatically, and -trajectory
// appends each completed job's perf record (with its model-drift report)
// to a JSONL file `metaprep drift` can render. Logs are structured
// (-log-format text|json) and each job's records carry its job ID.
//
// On SIGTERM (or SIGINT) the daemon drains gracefully: readiness flips to
// 503, new submissions are rejected, and running jobs finish before the
// process exits — up to -drain-timeout, after which running jobs are
// hard-cancelled through the pipeline's context propagation. A second
// signal forces immediate shutdown.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"metaprep/internal/jobs"
	"metaprep/internal/obsv"
	"metaprep/internal/server"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "metaprepd:", err)
		os.Exit(1)
	}
}

// parseBytesFlag reads a byte count with an optional K/M/G/T suffix (powers
// of 1024, case-insensitive, trailing "B"/"iB" allowed). Empty means 0
// (take the Options default).
func parseBytesFlag(name, s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	t := strings.ToUpper(strings.TrimSpace(s))
	t = strings.TrimSuffix(t, "IB")
	t = strings.TrimSuffix(t, "B")
	shift := 0
	switch {
	case strings.HasSuffix(t, "K"):
		shift, t = 10, t[:len(t)-1]
	case strings.HasSuffix(t, "M"):
		shift, t = 20, t[:len(t)-1]
	case strings.HasSuffix(t, "G"):
		shift, t = 30, t[:len(t)-1]
	case strings.HasSuffix(t, "T"):
		shift, t = 40, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n < 0 || n > (1<<62)>>shift {
		return 0, fmt.Errorf("-%s: %q is not a byte size", name, s)
	}
	return n << shift, nil
}

// run is the daemon body, split from main for testing: args are the command
// line, and sigc (created and signal.Notify-ed when nil) delivers the
// shutdown signals.
func run(args []string, sigc chan os.Signal) error {
	fs := flag.NewFlagSet("metaprepd", flag.ContinueOnError)
	addr := fs.String("addr", ":8077", "listen address")
	workers := fs.Int("workers", 1, "concurrent pipeline runs")
	queue := fs.Int("queue", 16, "submission queue capacity (admission control bound)")
	cacheCap := fs.Int("cache", 64, "result cache capacity in entries (-1 disables)")
	cacheBytes := fs.String("cache-bytes", "", "result cache byte budget, e.g. 256M (empty = default 256M)")
	artifactDir := fs.String("artifact-dir", "", "persistent partition artifact store: completed jobs park their .mpa artifact here keyed by index+filter, later jobs with the same key reload it instead of recomputing, and delta_of submissions chain on stored bases (empty disables the store)")
	artifactBudget := fs.String("artifact-budget", "", "artifact store byte budget, LRU-evicted, e.g. 8G (empty = default 4G)")
	retries := fs.Int("retries", 2, "retries for transient job failures")
	progress := fs.Duration("progress", 200*time.Millisecond, "SSE progress snapshot interval")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to wait for running jobs on shutdown")
	spillDir := fs.String("spill-dir", "", "root for out-of-core spill scratch: each spilling job gets a private subdirectory, removed when the job ends; orphans from a crashed daemon are swept at startup (empty = the OS temp dir, unmanaged)")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	ringEvents := fs.Int("ring-events", 0, "flight-recorder capacity in spans per job (0 = default, negative = unbounded)")
	traceDir := fs.String("trace-dir", "", "directory for automatic flight-recorder dumps of failed, cancelled or SLO-breaching jobs (empty disables dumps)")
	traceSLO := fs.Duration("trace-slo", 0, "run-time latency SLO: a successful job slower than this dumps its trace to -trace-dir (0 disables)")
	trajectory := fs.String("trajectory", "", "JSONL perf-trajectory file appended on every completed job (see `metaprep drift`)")
	driftCal := fs.String("drift-cal", "", "model calibration for the per-job drift report: edison (default), ganga, or off")
	serveArtifact := fs.String("serve-artifact", "", "partition artifact (.mpa) or prebuilt lookup (.mplk) to serve on POST /query from startup (empty = serve nothing until -serve-key matches a commit)")
	serveKey := fs.String("serve-key", "", "artifact-store name to follow for query hot-swap: every commit under this name rebuilds and atomically swaps the served lookup; 'auto' adopts the first committed partition artifact (empty disables the query tier unless -serve-artifact is set)")
	serveShards := fs.Int("serve-shards", 0, "lookup shard count for query parallelism (0 = default)")
	queryMaxBatch := fs.Int("query-max-batch", 4096, "max items (k-mers + sequences) per /query request")
	queryConcurrency := fs.Int("query-concurrency", 64, "max /query requests in flight; excess is rejected 429")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	lg, err := obsv.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
	if err != nil {
		return err
	}
	cacheBudget, err := parseBytesFlag("cache-bytes", *cacheBytes)
	if err != nil {
		return err
	}
	artBudget, err := parseBytesFlag("artifact-budget", *artifactBudget)
	if err != nil {
		return err
	}

	// Sweep spill orphans before accepting work: scratch under -spill-dir
	// can only be left behind by a previous daemon that died mid-job. Each
	// removed path is logged — scratch deletion should never be silent.
	var swept []string
	if *spillDir != "" {
		swept, err = jobs.SweepSpillDir(*spillDir)
		if err != nil {
			return fmt.Errorf("spill-dir sweep: %w", err)
		}
		for _, path := range swept {
			lg.Info("swept orphaned spill scratch", "path", path)
		}
		if len(swept) > 0 {
			lg.Info("spill-dir sweep complete", "removed", len(swept), "dir", *spillDir)
		}
	}

	// Query tier: serve component-label lookups on POST /query, hot-swapping
	// to newer artifacts the store commits under the followed key. Created
	// before the manager so artifact commits can be observed from the first
	// job on.
	var tier *server.QueryTier
	if *serveArtifact != "" || *serveKey != "" {
		lkDir := filepath.Join(os.TempDir(), fmt.Sprintf("metaprepd-lookups-%d", os.Getpid()))
		if *artifactDir != "" {
			lkDir = filepath.Join(*artifactDir, "lookups")
		} else {
			defer os.RemoveAll(lkDir)
		}
		tier, err = server.NewQueryTier(server.QueryOptions{
			Dir:           lkDir,
			Artifact:      *serveArtifact,
			Key:           *serveKey,
			Shards:        *serveShards,
			MaxBatch:      *queryMaxBatch,
			MaxConcurrent: *queryConcurrency,
			Logger:        lg,
		})
		if err != nil {
			return fmt.Errorf("query tier: %w", err)
		}
		defer tier.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	var onCommit func(name, path string)
	if tier != nil {
		onCommit = tier.ArtifactCommitted
	}
	mgr := jobs.NewManager(jobs.Options{
		Workers:             *workers,
		QueueCap:            *queue,
		CacheCap:            *cacheCap,
		CacheBytes:          cacheBudget,
		ArtifactDir:         *artifactDir,
		ArtifactBudgetBytes: artBudget,
		Retries:             *retries,
		SpillDir:            *spillDir,
		RingEvents:          *ringEvents,
		TraceDir:            *traceDir,
		TraceSLO:            *traceSLO,
		Trajectory:          *trajectory,
		DriftCal:            *driftCal,
		OnArtifactCommit:    onCommit,
		Logger:              lg,
	})
	srv := server.New(mgr, server.Options{
		ProgressInterval: *progress,
		OrphansSwept:     len(swept),
		Logger:           lg,
		Query:            tier,
	})
	httpSrv := &http.Server{Handler: srv}

	errc := make(chan error, 1)
	go func() {
		lg.Info("listening", "addr", ln.Addr().String(),
			"workers", *workers, "queue", *queue, "cache", *cacheCap)
		errc <- httpSrv.Serve(ln)
	}()

	if sigc == nil {
		sigc = make(chan os.Signal, 2)
		signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	}
	select {
	case sig := <-sigc:
		lg.Info("draining on signal (readyz now 503; running jobs finish)",
			"signal", sig.String(), "max_wait", *drainTimeout)
		go func() {
			<-sigc
			lg.Warn("second signal — forcing shutdown")
			os.Exit(1)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			lg.Warn("drain timed out — cancelling remaining jobs", "err", err)
			mgr.Stop()
			waitCtx, waitCancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer waitCancel()
			if err := mgr.Drain(waitCtx); err != nil {
				lg.Error("jobs did not stop", "err", err)
			}
		}
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shutCancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			lg.Error("http shutdown", "err", err)
		}
		lg.Info("drained, exiting")
		return nil
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
