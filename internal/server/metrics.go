package server

// metrics.go renders GET /metrics in the Prometheus text exposition format
// (0.0.4). Every family carries HELP and TYPE before its samples, histogram
// buckets are cumulative with the canonical `le` labels, and series within a
// family are emitted in deterministic sorted order — properties the strict
// validator in metrics_test.go pins.

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"metaprep/internal/jobs"
	"metaprep/internal/obsv"
)

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

// writeMetrics is the body of /metrics, split out so tests can render to a
// buffer without an HTTP round trip.
func (s *Server) writeMetrics(w io.Writer) {
	st := s.mgr.StatsSnapshot()

	family(w, "metaprepd_queue_depth", "Submitted jobs waiting for a worker.", "gauge")
	fmt.Fprintf(w, "metaprepd_queue_depth %d\n", st.QueueDepth)
	family(w, "metaprepd_queue_capacity", "Admission-control bound on the submission queue.", "gauge")
	fmt.Fprintf(w, "metaprepd_queue_capacity %d\n", st.QueueCapacity)
	family(w, "metaprepd_workers", "Concurrent pipeline runs the daemon executes.", "gauge")
	fmt.Fprintf(w, "metaprepd_workers %d\n", st.Workers)
	family(w, "metaprepd_cache_entries", "Entries resident in the content-addressed result cache.", "gauge")
	fmt.Fprintf(w, "metaprepd_cache_entries %d\n", st.CacheEntries)
	family(w, "metaprepd_cache_hits_total", "Submissions satisfied from the result cache.", "counter")
	fmt.Fprintf(w, "metaprepd_cache_hits_total %d\n", st.CacheHits)
	family(w, "metaprepd_cache_bytes", "Estimated resident bytes of the cached results (labels dominate).", "gauge")
	fmt.Fprintf(w, "metaprepd_cache_bytes %d\n", st.CacheBytes)
	if s.mgr.ArtifactStoreEnabled() {
		family(w, "metaprepd_artifact_entries", "Artifacts resident in the on-disk partition artifact store.", "gauge")
		fmt.Fprintf(w, "metaprepd_artifact_entries %d\n", st.ArtifactEntries)
		family(w, "metaprepd_artifact_bytes", "Disk bytes the artifact store occupies.", "gauge")
		fmt.Fprintf(w, "metaprepd_artifact_bytes %d\n", st.ArtifactBytes)
		family(w, "metaprepd_artifact_hits_total", "Jobs satisfied by reloading a stored partition artifact.", "counter")
		fmt.Fprintf(w, "metaprepd_artifact_hits_total %d\n", st.ArtifactHits)
		family(w, "metaprepd_artifact_misses_total", "Store lookups that fell through to a full pipeline run.", "counter")
		fmt.Fprintf(w, "metaprepd_artifact_misses_total %d\n", st.ArtifactMisses)
	}
	swept := s.opts.OrphansSwept + s.mgr.ArtifactsSwept()
	if s.opts.Query != nil {
		swept += s.opts.Query.swept
	}
	family(w, "metaprepd_orphans_swept_total", "Leftovers of a previous daemon process (run scratch directories, temp, staging and lookup-generation files) removed by the startup sweeps.", "counter")
	fmt.Fprintf(w, "metaprepd_orphans_swept_total %d\n", swept)
	family(w, "metaprepd_traces_dumped_total", "Automatic flight-recorder dumps written for failed, cancelled or SLO-breaching jobs.", "counter")
	fmt.Fprintf(w, "metaprepd_traces_dumped_total %d\n", st.TracesDumped)

	ready := 0
	if s.ready.Load() {
		ready = 1
	}
	family(w, "metaprepd_ready", "1 while accepting submissions, 0 once draining.", "gauge")
	fmt.Fprintf(w, "metaprepd_ready %d\n", ready)

	family(w, "metaprepd_jobs", "Jobs by lifecycle state.", "gauge")
	states := make([]string, 0, len(st.Jobs))
	for state := range st.Jobs {
		states = append(states, string(state))
	}
	sort.Strings(states)
	for _, state := range states {
		fmt.Fprintf(w, "metaprepd_jobs{state=%q} %d\n", state, st.Jobs[jobs.State(state)])
	}

	// Jobs-layer latency histograms plus the merged per-step distributions
	// of every completed run. All families share obsv's fixed log2 bucket
	// boundaries, so series from different daemons aggregate cleanly.
	h := s.mgr.Histograms()
	les := histBucketLabels()
	writeHistFamily(w, "metaprepd_job_queue_seconds",
		"Queue wait per executed job.", []labeledHist{{"", h.Queue}}, les)
	writeHistFamily(w, "metaprepd_job_run_seconds",
		"Pipeline run time per executed job.", []labeledHist{{"", h.Run}}, les)
	writeHistFamily(w, "metaprepd_job_total_seconds",
		"End-to-end latency (submit to terminal state) per executed job.", []labeledHist{{"", h.Total}}, les)
	stepNames := make([]string, 0, len(h.Steps))
	for name := range h.Steps {
		stepNames = append(stepNames, name)
	}
	sort.Strings(stepNames)
	steps := make([]labeledHist, 0, len(stepNames))
	for _, name := range stepNames {
		steps = append(steps, labeledHist{"step=" + strconv.Quote(name), h.Steps[name]})
	}
	writeHistFamily(w, "metaprepd_step_seconds",
		"Per-step pipeline latency across all ranks of completed jobs.", steps, les)

	// Model drift: measured-vs-predicted ratio per step from the most recent
	// completed job's reconciliation, plus the run-wide total and the wire-
	// and spill-byte ratios under reserved lowercase step values (step names
	// themselves are CamelCase, so they cannot collide).
	if d := s.mgr.LastDrift(); d != nil {
		family(w, "metaprepd_model_drift_ratio",
			"Measured/predicted ratio per pipeline step from the last completed job (1.0 = model exact).", "gauge")
		for _, sd := range d.Steps {
			fmt.Fprintf(w, "metaprepd_model_drift_ratio{step=%q} %s\n", sd.Step, fmtFloat(sd.Ratio))
		}
		fmt.Fprintf(w, "metaprepd_model_drift_ratio{step=\"total\"} %s\n", fmtFloat(d.TotalRatio))
		fmt.Fprintf(w, "metaprepd_model_drift_ratio{step=\"wire\"} %s\n", fmtFloat(d.WireRatio))
		fmt.Fprintf(w, "metaprepd_model_drift_ratio{step=\"spill\"} %s\n", fmtFloat(d.SpillRatio))
	}

	// Query tier: lookup state gauges, traffic counters and the request
	// latency histogram (admission to response encode).
	if t := s.opts.Query; t != nil {
		var keys, epoch uint64
		if ep, ok := t.swap.Acquire(); ok {
			keys = ep.Lookup().Keys()
			epoch = ep.Seq()
			ep.Release()
		}
		family(w, "metaprepd_query_lookup_keys", "Distinct k-mers in the served lookup (0 = nothing served).", "gauge")
		fmt.Fprintf(w, "metaprepd_query_lookup_keys %d\n", keys)
		family(w, "metaprepd_query_epoch", "Hot-swap generation of the served lookup (0 = nothing served).", "gauge")
		fmt.Fprintf(w, "metaprepd_query_epoch %d\n", epoch)
		family(w, "metaprepd_queries_total", "Query batches answered.", "counter")
		fmt.Fprintf(w, "metaprepd_queries_total %d\n", t.queries.Load())
		family(w, "metaprepd_query_kmers_total", "K-mers probed across all query batches.", "counter")
		fmt.Fprintf(w, "metaprepd_query_kmers_total %d\n", t.kmers.Load())
		family(w, "metaprepd_query_misses_total", "Probed k-mers absent from the served lookup.", "counter")
		fmt.Fprintf(w, "metaprepd_query_misses_total %d\n", t.misses.Load())
		family(w, "metaprepd_query_rejected_total", "Query batches rejected by admission control (429).", "counter")
		fmt.Fprintf(w, "metaprepd_query_rejected_total %d\n", t.rejected.Load())
		family(w, "metaprepd_query_swaps_total", "Lookup publications (initial serve + hot swaps).", "counter")
		fmt.Fprintf(w, "metaprepd_query_swaps_total %d\n", t.swaps.Load())
		writeHistFamily(w, "metaprepd_query_seconds",
			"Query request latency (admission to response encode).", []labeledHist{{"", t.hist.Snapshot()}}, les)
	}

	// Per-job pipeline counters: the obsv snapshot, one sample per
	// (job, counter, rank). Counter names become label values, not metric
	// names, so arbitrary "/"-separated obsv names need no escaping.
	family(w, "metaprepd_job_counter", "Per-job obsv counters, one series per (job, counter, rank).", "gauge")
	for _, js := range s.mgr.List() {
		full, err := s.mgr.Status(js.ID)
		if err != nil {
			continue
		}
		for _, cv := range full.Counters {
			fmt.Fprintf(w, "metaprepd_job_counter{job=%q,name=%q,rank=\"%d\"} %d\n",
				js.ID, cv.Name, cv.Rank, cv.Value)
		}
	}
}

// family writes the HELP and TYPE header every metric family must lead with.
func family(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// fmtFloat renders a float the way Prometheus expects (shortest round-trip
// form; "+Inf"/"NaN" never occur here because drift ratios are ε-smoothed).
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// histBucketLabels returns the `le` label values shared by every histogram
// family: obsv's pinned log2 bounds in seconds, then +Inf.
func histBucketLabels() []string {
	bounds := obsv.HistogramBounds()
	out := make([]string, len(bounds)+1)
	for i, b := range bounds {
		out[i] = fmtFloat(b.Seconds())
	}
	out[len(bounds)] = "+Inf"
	return out
}

// labeledHist pairs one histogram series with its pre-rendered extra labels
// ("" for none, `step="LocalSort"` for a step series).
type labeledHist struct {
	labels string
	snap   obsv.HistogramSnapshot
}

// writeHistFamily renders one histogram family: cumulative `le` buckets,
// then _sum (seconds) and _count per series.
func writeHistFamily(w io.Writer, name, help string, series []labeledHist, les []string) {
	family(w, name, help, "histogram")
	for _, s := range series {
		var cum uint64
		for i, le := range les {
			cum += s.snap.Buckets[i]
			fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, withLe(s.labels, le), cum)
		}
		fmt.Fprintf(w, "%s %s\n", seriesName(name+"_sum", s.labels),
			fmtFloat(time.Duration(s.snap.SumNanos).Seconds()))
		fmt.Fprintf(w, "%s %d\n", seriesName(name+"_count", s.labels), s.snap.Count)
	}
}

// withLe appends the le label to a pre-rendered label list.
func withLe(labels, le string) string {
	if labels == "" {
		return `le=` + strconv.Quote(le)
	}
	return labels + `,le=` + strconv.Quote(le)
}

// seriesName renders a sample name with an optional label set.
func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}
