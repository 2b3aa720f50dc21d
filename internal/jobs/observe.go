package jobs

import (
	"io"
	"os"
	"path/filepath"
	"time"

	"metaprep/internal/core"
	"metaprep/internal/model"
	"metaprep/internal/obsv"
	"metaprep/internal/traj"
)

// observe.go is the jobs layer's observability tail: everything that
// happens after a job reaches a terminal state — latency histograms, the
// per-step histogram merge, the automatic flight-recorder dump, the
// trajectory append and the lifecycle log record. All of it runs outside
// m.mu: the job is already terminal and its collector has its own locks.

// observeTerminal folds one finished job into the manager's metrics and
// fires the terminal side effects.
func (m *Manager) observeTerminal(j *Job, cfg core.Config, state State,
	res *core.Result, err error, queued, ran, total time.Duration) {
	// totalHist goes last: once it counts a job, that job's queue, run and
	// step observations are all visible.
	m.queueHist.Observe(queued)
	m.runHist.Observe(ran)
	if state == Done {
		m.mergeStepHists(j.obs)
	}
	m.totalHist.Observe(total)

	// The flight recorder earns its keep here: a failed, cancelled or
	// SLO-breaching job dumps its last-N-spans window without anyone having
	// asked for a trace in advance.
	dump := state == Failed || state == Cancelled ||
		(m.opts.TraceSLO > 0 && ran > m.opts.TraceSLO)
	var tracePath string
	if dump && m.opts.TraceDir != "" {
		tracePath = filepath.Join(m.opts.TraceDir, "job-"+j.ID+".trace.json")
		dumpErr := os.MkdirAll(m.opts.TraceDir, 0o755)
		if dumpErr == nil {
			dumpErr = j.obs.SaveTrace(tracePath)
		}
		if dumpErr != nil {
			tracePath = ""
			if lg := m.opts.Logger; lg != nil {
				lg.Error("trace dump failed", "job", j.ID, "err", dumpErr)
			}
		} else {
			m.mu.Lock()
			m.tracesDumped++
			m.mu.Unlock()
		}
	}

	if state == Done && m.opts.Trajectory != "" && res != nil {
		rec := traj.FromResult(cfg, res)
		rec.Time = time.Now()
		rec.Job = j.ID
		if cfg.Index != nil {
			rec.Dataset = cfg.Index.Digest()[:12]
		}
		if tjErr := traj.Append(m.opts.Trajectory, rec); tjErr != nil {
			if lg := m.opts.Logger; lg != nil {
				lg.Error("trajectory append failed", "job", j.ID, "err", tjErr)
			}
		}
	}

	if lg := m.opts.Logger; lg != nil {
		attrs := []any{
			"job", j.ID, "state", state,
			"queue_wait", queued, "run", ran, "total", total,
		}
		if tracePath != "" {
			attrs = append(attrs, "trace", tracePath)
		}
		switch state {
		case Done:
			if res.Drift != nil {
				attrs = append(attrs, "drift_total", res.Drift.TotalRatio)
			}
			lg.Info("job done", attrs...)
		default:
			attrs = append(attrs, "err", err)
			lg.Warn("job "+string(state), attrs...)
		}
	}
}

// mergeStepHists folds a finished job's per-rank step/<name> histograms
// into the manager's service-level per-step histograms (ranks and jobs
// merge alike — the histograms are built to aggregate).
func (m *Manager) mergeStepHists(obs *obsv.Collector) {
	for _, hv := range obs.Histograms() {
		name, ok := cutStepName(hv.Name)
		if !ok {
			continue
		}
		m.hmu.Lock()
		h := m.stepHists[name]
		if h == nil {
			h = obsv.NewHistogram()
			m.stepHists[name] = h
		}
		m.hmu.Unlock()
		h.Merge(hv.Snap)
	}
}

// cutStepName extracts the step name out of a "step/<name>" histogram key.
func cutStepName(key string) (string, bool) {
	const prefix = "step/"
	if len(key) <= len(prefix) || key[:len(prefix)] != prefix {
		return "", false
	}
	return key[len(prefix):], true
}

// JobHistograms is the jobs-layer latency snapshot /metrics renders: queue
// wait, run time and end-to-end time across executed jobs, plus the merged
// per-step distributions of every completed run.
type JobHistograms struct {
	Queue obsv.HistogramSnapshot `json:"queue"`
	Run   obsv.HistogramSnapshot `json:"run"`
	Total obsv.HistogramSnapshot `json:"total"`
	// Steps is keyed by the pipeline step name ("KmerGen", "LocalSort", …).
	Steps map[string]obsv.HistogramSnapshot `json:"steps,omitempty"`
}

// Histograms snapshots the jobs-layer latency histograms.
func (m *Manager) Histograms() JobHistograms {
	out := JobHistograms{
		Queue: m.queueHist.Snapshot(),
		Run:   m.runHist.Snapshot(),
		Total: m.totalHist.Snapshot(),
		Steps: make(map[string]obsv.HistogramSnapshot),
	}
	m.hmu.Lock()
	hs := make(map[string]*obsv.Histogram, len(m.stepHists))
	for k, h := range m.stepHists {
		hs[k] = h
	}
	m.hmu.Unlock()
	for k, h := range hs {
		out.Steps[k] = h.Snapshot()
	}
	return out
}

// LastDrift returns the most recent completed job's model reconciliation
// (nil before any job completes with drift enabled).
func (m *Manager) LastDrift() *model.DriftReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastDrift
}

// TracesDumped returns how many automatic flight-recorder dumps the
// manager has written.
func (m *Manager) TracesDumped() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tracesDumped
}

// WriteTrace streams a job's flight-recorder trace as Chrome trace-event
// JSON — the GET /jobs/{id}/trace payload. Valid in any state: a running
// job yields its window so far, a failed one its final moments.
func (m *Manager) WriteTrace(id string, w io.Writer) error {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return ErrNotFound
	}
	// The collector has its own lock; don't nest it under m.mu.
	return j.obs.WriteTrace(w)
}
