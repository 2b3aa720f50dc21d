package simulate

import (
	"io"
	"os"
	"testing"

	"metaprep/internal/fastq"
)

func tinySpec() CommunitySpec {
	return CommunitySpec{
		Name:    "tiny",
		Species: 4, GenomeLen: 2000,
		AbundanceSigma: 0.5,
		SharedRepeats:  2, RepeatLen: 150, RepeatsPerGenome: 2,
		Pairs: 200, ReadLen: 60,
		Paired: true, InsertMin: 120, InsertMax: 200,
		ErrorRate: 0.01, NRate: 0.002,
		Files: 2, Seed: 7,
	}
}

func TestGenerateBasics(t *testing.T) {
	dir := t.TempDir()
	ds, err := Generate(tinySpec(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Files) != 2 {
		t.Fatalf("files: %d", len(ds.Files))
	}
	if ds.Records != 400 {
		t.Errorf("records = %d, want 400", ds.Records)
	}
	if ds.Bases != 400*60 {
		t.Errorf("bases = %d", ds.Bases)
	}
	if len(ds.Origin) != 200 {
		t.Errorf("origin entries = %d", len(ds.Origin))
	}
	if len(ds.Genomes) != 4 {
		t.Errorf("genomes = %d", len(ds.Genomes))
	}
	// All origins valid.
	for _, g := range ds.Origin {
		if g < 0 || g >= 4 {
			t.Fatalf("bad origin %d", g)
		}
	}
	// Files parse as FASTQ with the right record split.
	var total int64
	for _, path := range ds.Files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		n, err := countRecords(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if n%2 != 0 {
			t.Errorf("%s holds %d records — a pair was split across files", path, n)
		}
		total += n
	}
	if total != 400 {
		t.Errorf("total records in files = %d", total)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d1, err := Generate(tinySpec(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(tinySpec(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1.Files {
		b1, _ := os.ReadFile(d1.Files[i])
		b2, _ := os.ReadFile(d2.Files[i])
		if string(b1) != string(b2) {
			t.Fatalf("file %d differs between identically-seeded runs", i)
		}
	}
}

func TestGenerateSeedMatters(t *testing.T) {
	s2 := tinySpec()
	s2.Seed = 8
	d1, _ := Generate(tinySpec(), t.TempDir())
	d2, _ := Generate(s2, t.TempDir())
	b1, _ := os.ReadFile(d1.Files[0])
	b2, _ := os.ReadFile(d2.Files[0])
	if string(b1) == string(b2) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateUnpaired(t *testing.T) {
	spec := tinySpec()
	spec.Paired = false
	spec.Files = 1
	ds, err := Generate(spec, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if ds.Records != 200 {
		t.Errorf("records = %d, want 200", ds.Records)
	}
}

func TestReadsComeFromGenomes(t *testing.T) {
	// With no errors or Ns, every read must be an exact substring of its
	// origin genome (possibly reverse-complemented).
	spec := tinySpec()
	spec.ErrorRate = 0
	spec.NRate = 0
	spec.Files = 1
	ds, err := Generate(spec, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, _ := os.Open(ds.Files[0])
	defer f.Close()
	r := fastq.NewReader(f)
	rec := 0
	for {
		record, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		genome := ds.Genomes[ds.Origin[rec/2]]
		seq := string(record.Seq)
		rc := string(revCompInPlace(append([]byte(nil), record.Seq...)))
		if !contains(genome, seq) && !contains(genome, rc) {
			t.Fatalf("record %d is not a substring of its origin genome", rec)
		}
		rec++
	}
}

func contains(genome []byte, s string) bool {
	g := string(genome)
	for i := 0; i+len(s) <= len(g); i++ {
		if g[i:i+len(s)] == s {
			return true
		}
	}
	return false
}

func TestAbundanceSkew(t *testing.T) {
	spec := tinySpec()
	spec.AbundanceSigma = 2.0
	spec.Pairs = 1000
	ds, err := Generate(spec, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, spec.Species)
	for _, g := range ds.Origin {
		counts[g]++
	}
	total := 0
	maxC := 0
	for _, c := range counts {
		total += c
		if c > maxC {
			maxC = c
		}
	}
	if total != 1000 {
		t.Fatalf("apportioned %d pairs", total)
	}
	// With σ=2 the distribution must be visibly skewed.
	if maxC <= total/spec.Species {
		t.Errorf("no abundance skew: max species has %d of %d", maxC, total)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []func(*CommunitySpec){
		func(s *CommunitySpec) { s.Species = 0 },
		func(s *CommunitySpec) { s.Pairs = 0 },
		func(s *CommunitySpec) { s.ReadLen = s.GenomeLen },
		func(s *CommunitySpec) { s.InsertMin = 10 },
		func(s *CommunitySpec) { s.Files = 0 },
		func(s *CommunitySpec) { s.ErrorRate = 2 },
	}
	for i, mutate := range bad {
		s := tinySpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		spec, err := Preset(name, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: invalid: %v", name, err)
		}
		if spec.TotalBases() <= 0 {
			t.Errorf("%s: no volume", name)
		}
	}
	// Scaling.
	full, _ := Preset("MM", 1.0)
	tenth, _ := Preset("MM", 0.1)
	if tenth.Pairs != full.Pairs/10 {
		t.Errorf("scale 0.1: %d pairs, want %d", tenth.Pairs, full.Pairs/10)
	}
	// Aliases.
	if _, err := Preset("hgsim", 1); err != nil {
		t.Error("alias hgsim rejected")
	}
	if _, err := Preset("bogus", 1); err == nil {
		t.Error("unknown preset accepted")
	}
	// Relative volumes follow Table 2's ordering HG < LL < MM < IS.
	var prev int64
	for _, name := range PresetNames() {
		spec, _ := Preset(name, 1.0)
		if spec.TotalBases() <= prev {
			t.Errorf("%s volume %d not greater than previous %d", name, spec.TotalBases(), prev)
		}
		prev = spec.TotalBases()
	}
}

func TestGenerateTinyScale(t *testing.T) {
	spec, _ := Preset("HG", 0.01)
	ds, err := Generate(spec, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if ds.Records != int64(2*spec.Pairs) {
		t.Errorf("records = %d", ds.Records)
	}
}

func TestStrainVariants(t *testing.T) {
	spec := tinySpec()
	spec.Strains = 3
	spec.StrainDivergence = 0.02
	spec.ErrorRate = 0
	spec.NRate = 0
	spec.Files = 1
	ds, err := Generate(spec, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// With strains, reads need not be substrings of the base genome (they
	// come from diverged variants) — but most bases still match; count
	// reads that are exact substrings of the base genome: with 2% per-base
	// divergence and 60 bp reads, roughly (0.98^60 ≈ 30%) of strain-variant
	// reads mutate; reads from strain 0 always match. Just assert both
	// kinds exist.
	f, _ := os.Open(ds.Files[0])
	defer f.Close()
	r := fastq.NewReader(f)
	exact, inexact := 0, 0
	rec := 0
	for {
		record, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		genome := ds.Genomes[ds.Origin[rec/2]]
		seq := string(record.Seq)
		rc := string(revCompInPlace(append([]byte(nil), record.Seq...)))
		if contains(genome, seq) || contains(genome, rc) {
			exact++
		} else {
			inexact++
		}
		rec++
	}
	if exact == 0 || inexact == 0 {
		t.Fatalf("strain mix: %d exact, %d diverged — want both", exact, inexact)
	}
}

func TestStrainValidation(t *testing.T) {
	spec := tinySpec()
	spec.Strains = 3
	if err := spec.Validate(); err == nil {
		t.Error("strains without divergence accepted")
	}
	spec.StrainDivergence = 0.9
	if err := spec.Validate(); err == nil {
		t.Error("divergence 0.9 accepted")
	}
	spec.StrainDivergence = 0.01
	if err := spec.Validate(); err != nil {
		t.Error(err)
	}
}

// countRecords reads r to the end as FASTQ and returns its record count.
func countRecords(r io.Reader) (int64, error) {
	fr := fastq.NewReader(r)
	for {
		if _, err := fr.Next(); err != nil {
			if err == io.EOF {
				err = nil
			}
			return fr.Count(), err
		}
	}
}
