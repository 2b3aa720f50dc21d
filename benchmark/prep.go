package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"

	"metaprep"
	"metaprep/internal/artifact"
	"metaprep/internal/fastq"
	"metaprep/internal/kmer"
	"metaprep/internal/server"
)

// The set-up child (-role prep) does everything that is not the program
// under test — dataset generation, IndexCreate, the serial oracle, the
// artifact the query tier will serve, the request bodies and their expected
// answers — so none of its memory shows in the workload process's VmHWM.
// Its wall time is part of setup_s: the parent waits for it.

// runSummary is what the parent needs from one Partition call in the child.
type runSummary struct {
	WallS      float64
	Components int
	Largest    int
	Tuples     uint64
	Edges      uint64
	LabelsHash string
	Steps      stepMs
	WireBytes  int64
	SpillBytes int64
	PlanMemMiB float64
}

// stepMs is core.StepTimes in milliseconds.
type stepMs struct {
	KmerGenIO, KmerGen, Comm, LocalSort, LocalCC, MergeComm, MergeCC, CCIO float64
}

func (s stepMs) sum() float64 {
	return s.KmerGenIO + s.KmerGen + s.Comm + s.LocalSort + s.LocalCC + s.MergeComm + s.MergeCC + s.CCIO
}

func summarize(res *metaprep.Result, wall time.Duration) runSummary {
	s := runSummary{
		WallS:      wall.Seconds(),
		Components: res.Components,
		Largest:    res.LargestSize,
		Tuples:     res.Tuples,
		Edges:      res.Edges,
		LabelsHash: hashLabels(res.Labels),
		Steps: stepMs{ms(res.Steps.KmerGenIO), ms(res.Steps.KmerGen), ms(res.Steps.KmerGenComm), ms(res.Steps.LocalSort),
			ms(res.Steps.LocalCC), ms(res.Steps.MergeComm), ms(res.Steps.MergeCC), ms(res.Steps.CCIO)},
		PlanMemMiB: float64(res.MemoryPerTask) / (1 << 20),
	}
	for _, t := range res.PerTask {
		s.WireBytes += t.BytesSent
		s.SpillBytes += t.SpillBytes
	}
	return s
}

func hashLabels(labels []uint32) string {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	for _, l := range labels {
		buf = binary.LittleEndian.AppendUint32(buf, l)
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

type prepReport struct {
	GenS         float64
	IndexS       float64
	DatasetBytes int64
	Oracle       *runSummary // Tasks=1 Threads=1 Passes=1, no knobs
	Artifact     *runSummary // Tasks=2 with ArtifactOut
	ArtifactKeys int         // distinct k-mers in the artifact
	ArtifactSize int64
	QuerySetS    float64
}

// Paths inside a run's scratch directory.
type runDir string

func (d runDir) data() string     { return filepath.Join(string(d), "data") }
func (d runDir) index() string    { return filepath.Join(string(d), "ds.idx") }
func (d runDir) labels() string   { return filepath.Join(string(d), "oracle.labels") }
func (d runDir) artifact() string { return filepath.Join(string(d), "ref.mpa") }
func (d runDir) queries() string  { return filepath.Join(string(d), "queries.gob") }
func (d runDir) report() string   { return filepath.Join(string(d), "prep.json") }
func (d runDir) out() string      { return filepath.Join(string(d), "out") }
func (d runDir) spill() string    { return filepath.Join(string(d), "spill") }
func (d runDir) lookups() string  { return filepath.Join(string(d), "lookups") }

// spawnPrep runs the set-up child to completion and reads its report.
func spawnPrep(w workload, o options, dir runDir) (*prepReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-role", "prep", "-workload", w.name, "-seed", fmt.Sprint(o.seed), "-dir", string(dir), "-trace", o.trace}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("set-up child: %w", err)
	}
	b, err := os.ReadFile(dir.report())
	if err != nil {
		return nil, err
	}
	var rep prepReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", dir.report(), err)
	}
	return &rep, nil
}

// runPrep is the child's body; o.dir is the run's scratch directory here.
// A batch workload needs the serial oracle, a query workload the served
// artifact and the query set; a traced run needs all of it for the layer
// replay, and then the two pipeline runs must agree.
func runPrep(w workload, o options) error {
	dir := runDir(o.dir)
	withOracle, withArtifact := !w.query || o.traced(), w.query || o.traced()
	spec, err := datasetSpec(w, o.seed, o.quick)
	if err != nil {
		return err
	}
	var rep prepReport

	t0 := time.Now()
	ds, err := metaprep.Generate(spec, dir.data())
	if err != nil {
		return err
	}
	rep.GenS = time.Since(t0).Seconds()
	for _, f := range ds.Files {
		st, err := os.Stat(f)
		if err != nil {
			return err
		}
		rep.DatasetBytes += st.Size()
	}

	t0 = time.Now()
	idx, err := metaprep.BuildIndexParallel(ds.Files, indexOptions(), 2)
	if err != nil {
		return err
	}
	rep.IndexS = time.Since(t0).Seconds()
	if err := idx.Save(dir.index()); err != nil {
		return err
	}

	if withOracle {
		cfg := metaprep.DefaultConfig(idx)
		cfg.DriftCal = "off"
		t0 = time.Now()
		res, err := metaprep.Partition(cfg)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		s := summarize(res, time.Since(t0))
		rep.Oracle = &s
		if err := metaprep.SaveLabels(dir.labels(), res.Labels); err != nil {
			return err
		}
	}

	if withArtifact {
		cfg := metaprep.DefaultConfig(idx)
		cfg.Tasks = 2
		cfg.DriftCal = "off"
		cfg.ArtifactOut = dir.artifact()
		t0 = time.Now()
		res, err := metaprep.Partition(cfg)
		if err != nil {
			return fmt.Errorf("artifact run: %w", err)
		}
		s := summarize(res, time.Since(t0))
		rep.Artifact = &s
		if rep.Oracle != nil && rep.Oracle.LabelsHash != s.LabelsHash {
			return fmt.Errorf("artifact run labels %s differ from the serial oracle's %s", s.LabelsHash, rep.Oracle.LabelsHash)
		}
		t0 = time.Now()
		ref, err := loadReference(dir.artifact())
		if err != nil {
			return err
		}
		rep.ArtifactKeys = len(ref.keys)
		rep.ArtifactSize = ref.size
		qs, err := buildQuerySet(w, ref, ds.Files, querySeed(o.seed), o.quick)
		if err != nil {
			return err
		}
		if err := writeGob(dir.queries(), qs); err != nil {
			return err
		}
		rep.QuerySetS = time.Since(t0).Seconds()
	}

	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(dir.report(), b, 0o644)
}

// reference is the artifact's content read through artifact.Reader alone:
// every distinct canonical k-mer in key order, the component label of the
// first read in its run (the lookup's dedup rule) and the run's length.
type reference struct {
	keys   []uint64
	labels []uint32
	counts []uint32
	size   int64
}

func loadReference(path string) (*reference, error) {
	ar, err := artifact.Open(path)
	if err != nil {
		return nil, err
	}
	defer ar.Close()
	if ar.Meta().Wide {
		return nil, fmt.Errorf("%s: 128-bit artifact, the benchmark uses k=%d", path, kmerLen)
	}
	labelMap, err := ar.Labels()
	if err != nil {
		return nil, err
	}
	st, err := ar.Kmers()
	if err != nil {
		return nil, err
	}
	defer st.Close()
	ref := &reference{size: ar.Size()}
	for {
		_, lo, val, ok, err := st.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if n := len(ref.keys); n > 0 && ref.keys[n-1] == lo {
			ref.counts[n-1]++
			continue
		}
		ref.keys = append(ref.keys, lo)
		ref.labels = append(ref.labels, labelMap[val])
		ref.counts = append(ref.counts, 1)
	}
	if len(ref.keys) == 0 {
		return nil, fmt.Errorf("%s: artifact has no k-mers", path)
	}
	return ref, nil
}

func (r *reference) get(key uint64) (label, count uint32, ok bool) {
	i, ok := slices.BinarySearch(r.keys, key)
	if !ok {
		return 0, 0, false
	}
	return r.labels[i], r.counts[i], true
}

// querySet is the pool of pre-encoded request bodies a query workload
// cycles through, with the answer the reference gives for each.
type querySet struct {
	Reads  bool
	Bodies [][]byte
	Kmers  [][]server.KmerAnswer     // per body, k-mer bodies
	Seqs   [][]server.SequenceAnswer // per body, read bodies
	NKmers []int                     // k-mers answered per body
	Misses []int                     // of which absent from the artifact
}

const (
	kmersPerBody = 256
	readsPerBody = 64
	absentFrac   = 0.10
)

func buildQuerySet(w workload, ref *reference, files []string, seed int64, quick bool) (*querySet, error) {
	rng := rand.New(rand.NewSource(seed))
	qs := &querySet{Reads: w.reads}
	bodies := 2048
	if w.reads {
		bodies = 256
	}
	if quick {
		bodies /= 32
	}
	var reads [][]byte
	if w.reads {
		var err error
		if reads, err = loadReads(files); err != nil {
			return nil, err
		}
	}
	for b := 0; b < bodies; b++ {
		var req server.QueryRequest
		nk, miss := 0, 0
		if !w.reads {
			ans := make([]server.KmerAnswer, kmersPerBody)
			for i := range ans {
				var km kmer.Kmer64
				if rng.Float64() < absentFrac {
					km = kmer.Kmer64(rng.Uint64() & kmer.Mask64(kmerLen))
				} else {
					km = kmer.Kmer64(ref.keys[rng.Intn(len(ref.keys))])
				}
				if rng.Intn(2) == 1 { // either strand: the server must canonicalise
					km = kmer.RevComp64(km, kmerLen)
				}
				req.Kmers = append(req.Kmers, kmer.String64(km, kmerLen))
				l, c, ok := ref.get(uint64(kmer.Canonical64(km, kmerLen)))
				ans[i] = server.KmerAnswer{Label: l, Count: c, Found: ok}
				if !ok {
					miss++
				}
			}
			nk = kmersPerBody
			qs.Kmers = append(qs.Kmers, ans)
		} else {
			ans := make([]server.SequenceAnswer, readsPerBody)
			for i := range ans {
				var seq []byte
				if rng.Float64() < absentFrac {
					seq = make([]byte, 100)
					for j := range seq {
						seq[j] = "ACGT"[rng.Intn(4)]
					}
				} else {
					seq = reads[rng.Intn(len(reads))]
				}
				req.Sequences = append(req.Sequences, string(seq))
				var labs []uint32
				kmer.ForEach64(seq, kmerLen, func(_ int, km kmer.Kmer64) {
					ans[i].Kmers++
					if l, _, ok := ref.get(uint64(km)); ok {
						labs = append(labs, l)
					}
				})
				ans[i].Hits = len(labs)
				if len(labs) > 0 {
					ans[i].Found = true
					ans[i].Label = majority(labs)
				}
				nk += ans[i].Kmers
				miss += ans[i].Kmers - ans[i].Hits
			}
			qs.Seqs = append(qs.Seqs, ans)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		qs.Bodies = append(qs.Bodies, body)
		qs.NKmers = append(qs.NKmers, nk)
		qs.Misses = append(qs.Misses, miss)
	}
	return qs, nil
}

// majority returns the most frequent label, ties to the lower label — the
// documented rule of POST /query, restated here independently.
func majority(labs []uint32) uint32 {
	counts := map[uint32]int{}
	for _, l := range labs {
		counts[l]++
	}
	best, bestN := uint32(0), 0
	for l, n := range counts {
		if n > bestN || (n == bestN && l < best) {
			best, bestN = l, n
		}
	}
	return best
}

// loadReads returns every sequence of the dataset, in file order.
func loadReads(files []string) ([][]byte, error) {
	bufs, err := readFiles(files)
	if err != nil {
		return nil, err
	}
	return scanSeqs(bufs)
}

func readFiles(files []string) ([][]byte, error) {
	bufs := make([][]byte, len(files))
	for i, f := range files {
		var err error
		if bufs[i], err = os.ReadFile(f); err != nil {
			return nil, err
		}
	}
	return bufs, nil
}

// scanSeqs parses whole FASTQ files in place; the sequences alias bufs.
func scanSeqs(bufs [][]byte) ([][]byte, error) {
	var seqs [][]byte
	for i, buf := range bufs {
		sc := fastq.NewChunkScanner(buf)
		for {
			rec, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("file %d: %w", i, err)
			}
			seqs = append(seqs, rec.Seq)
		}
	}
	return seqs, nil
}

func writeGob(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readGob(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return gob.NewDecoder(f).Decode(v)
}
