package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"metaprep/internal/obsv"
)

// span is one recorded interval. Parent is the id of the span that caused
// it (0 for a root). A layer's self time is its span's duration minus the
// part of it its children cover.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them once, at exit. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Workload: t.workload, StartNs: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// adoptSteps copies the pipeline's own per-task step spans out of an obsv
// collector as children of the benchmark's span around the Partition call.
func (t *tracer) adoptSteps(parent int, c *obsv.Collector) {
	if t == nil || c == nil {
		return
	}
	shift := c.Epoch().Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range c.Events() {
		if e.Cat != "step" || e.Phase != "X" {
			continue
		}
		start := e.Ts.Nanoseconds() + shift
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: "core", Name: e.Name,
			Workload: t.workload, StartNs: start, EndNs: start + e.Dur.Nanoseconds()})
	}
}

func (t *tracer) write(path string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{t.workload, seed, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
