package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"metaprep"
	"metaprep/internal/stats"
)

// env caches generated datasets, built indexes and the host calibration so
// experiments that share inputs do not regenerate them.
type env struct {
	ws    string
	scale float64
	// csvDir, when set, receives each printed table as <name>.csv.
	csvDir string
	// emitted lists every table name emit has filed, in order.
	emitted []string

	mu       sync.Mutex
	datasets map[string]*metaprep.Dataset
	indexes  map[string]*metaprep.Index
	cal      *metaprep.Calibration
}

func newEnv(ws string, scale float64) *env {
	return &env{
		ws:       ws,
		scale:    scale,
		datasets: map[string]*metaprep.Dataset{},
		indexes:  map[string]*metaprep.Index{},
	}
}

// dataset generates (once) and returns the named preset at the env scale.
func (e *env) dataset(name string) (*metaprep.Dataset, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ds, ok := e.datasets[name]; ok {
		return ds, nil
	}
	spec, err := metaprep.Preset(name, e.scale)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.ws, "data", name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ds, err := metaprep.Generate(spec, dir)
	if err != nil {
		return nil, err
	}
	e.datasets[name] = ds
	return ds, nil
}

// index builds (once) and returns the dataset's index at the given k.
func (e *env) index(name string, k int) (*metaprep.Index, *metaprep.Dataset, error) {
	ds, err := e.dataset(name)
	if err != nil {
		return nil, nil, err
	}
	key := fmt.Sprintf("%s-k%d", name, k)
	e.mu.Lock()
	defer e.mu.Unlock()
	if idx, ok := e.indexes[key]; ok {
		return idx, ds, nil
	}
	opts := metaprep.DefaultIndexOptions()
	opts.K = k
	opts.Paired = true
	opts.ChunkSize = 1 << 20
	idx, err := metaprep.BuildIndex(ds.Files, opts)
	if err != nil {
		return nil, nil, err
	}
	e.indexes[key] = idx
	return idx, ds, nil
}

// calibration measures (once) this host's kernel rates.
func (e *env) calibration() metaprep.Calibration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cal == nil {
		cal := metaprep.HostCalibration(e.ws)
		e.cal = &cal
	}
	return *e.cal
}

// runDir returns a fresh output directory for a pipeline run.
func (e *env) runDir(tag string) string {
	return filepath.Join(e.ws, "out", tag)
}

// emit prints a table and, when -csv is set, also writes it as name.csv.
func (e *env) emit(name string, t *stats.Table) error {
	fmt.Print(t.String())
	e.emitted = append(e.emitted, name)
	if e.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(e.csvDir, 0o755); err != nil {
		return err
	}
	name = strings.ReplaceAll(name, " ", "-")
	f, err := os.Create(filepath.Join(e.csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}
