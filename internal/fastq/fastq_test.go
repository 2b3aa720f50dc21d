package fastq

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = "@r1 first\nACGT\n+\nIIII\n@r2\nGGCC\n+r2\nJJJJ\n"

func TestReaderBasic(t *testing.T) {
	r := NewReader(strings.NewReader(sample))
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.ID) != "r1 first" || string(rec.Seq) != "ACGT" || string(rec.Qual) != "IIII" {
		t.Errorf("record 1 = %q %q %q", rec.ID, rec.Seq, rec.Qual)
	}
	if r.Offset() != 22 {
		t.Errorf("offset after record 1 = %d, want 22", r.Offset())
	}
	rec, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.ID) != "r2" || string(rec.Seq) != "GGCC" {
		t.Errorf("record 2 = %q %q", rec.ID, rec.Seq)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want io.EOF, got %v", err)
	}
	if r.Count() != 2 {
		t.Errorf("Count = %d, want 2", r.Count())
	}
}

func TestReaderRecordViewInvalidation(t *testing.T) {
	r := NewReader(strings.NewReader(sample))
	rec1, _ := r.Next()
	keep := rec1.Clone()
	_, _ = r.Next()
	if string(keep.Seq) != "ACGT" {
		t.Error("Clone did not preserve record across Next")
	}
}

func TestReaderCRLF(t *testing.T) {
	r := NewReader(strings.NewReader("@a\r\nACGT\r\n+\r\nIIII\r\n"))
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Seq) != "ACGT" || string(rec.Qual) != "IIII" {
		t.Errorf("CRLF parse = %q %q", rec.Seq, rec.Qual)
	}
}

func TestReaderNoTrailingNewline(t *testing.T) {
	r := NewReader(strings.NewReader("@a\nACGT\n+\nIIII"))
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Qual) != "IIII" {
		t.Errorf("qual = %q", rec.Qual)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want io.EOF, got %v", err)
	}
}

func TestReaderQualityStartingWithAtAndPlus(t *testing.T) {
	// Quality strings may begin with '@' or '+'; the 4-line structure must
	// disambiguate.
	in := "@a\nACGT\n+\n@+I+\n@b\nTTTT\n+\n++++\n"
	r := NewReader(strings.NewReader(in))
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Errorf("parsed %d records, want 2", n)
	}
}

func TestReaderErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"no-at", "r1\nACGT\n+\nIIII\n"},
		{"bad-sep", "@r1\nACGT\n-\nIIII\n"},
		{"qual-len", "@r1\nACGT\n+\nII\n"},
		{"truncated", "@r1\nACGT\n"},
		{"empty-header", "\nACGT\n+\nIIII\n"},
	}
	for _, c := range cases {
		r := NewReader(strings.NewReader(c.in))
		if _, err := r.Next(); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", c.name, err)
		}
	}
}

func TestReaderVeryLongLine(t *testing.T) {
	seq := strings.Repeat("ACGT", 200<<10/4) // 200 KiB, larger than buffer
	in := "@long\n" + seq + "\n+\n" + strings.Repeat("I", len(seq)) + "\n@next\nAC\n+\nII\n"
	r := NewReader(strings.NewReader(in))
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Seq) != len(seq) {
		t.Fatalf("long seq len = %d, want %d", len(rec.Seq), len(seq))
	}
	rec, err = r.Next()
	if err != nil || string(rec.ID) != "next" {
		t.Fatalf("record after long line: %v %q", err, rec.ID)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var recs []Record
	for i := 0; i < 100; i++ {
		n := 1 + rng.Intn(200)
		seq := make([]byte, n)
		qual := make([]byte, n)
		for j := range seq {
			seq[j] = "ACGTN"[rng.Intn(5)]
			qual[j] = byte('!' + rng.Intn(40))
		}
		recs = append(recs, Record{
			ID:   []byte(strings.Repeat("x", 1+rng.Intn(20))),
			Seq:  seq,
			Qual: qual,
		})
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	total := 0
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		total += len(rec.Bytes(nil))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 100 {
		t.Errorf("writer Count = %d", w.Count())
	}
	if buf.Len() != total {
		t.Errorf("encoded size = %d, Bytes sum = %d", buf.Len(), total)
	}
	r := NewReader(&buf)
	for i, want := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !Equal(got, want) {
			t.Fatalf("record %d: got %q %q %q", i, got.ID, got.Seq, got.Qual)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestOffsetsAreRecordBoundaries(t *testing.T) {
	// Reading from any recorded offset must yield the remaining records.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 10; i++ {
		seq := bytes.Repeat([]byte{"ACGT"[i%4]}, i+1)
		_ = w.Write(Record{ID: []byte{byte('a' + i)}, Seq: seq, Qual: bytes.Repeat([]byte("I"), i+1)})
	}
	_ = w.Flush()
	data := buf.Bytes()

	r := NewReader(bytes.NewReader(data))
	var offs []int64
	for {
		offs = append(offs, r.Offset())
		if _, err := r.Next(); err == io.EOF {
			break
		}
	}
	for i, off := range offs[:len(offs)-1] {
		sub := NewReader(bytes.NewReader(data[off:]))
		rec, err := sub.Next()
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if rec.ID[0] != byte('a'+i) {
			t.Fatalf("offset %d: got record %q, want %c", off, rec.ID, 'a'+i)
		}
	}
}

func TestInterleave(t *testing.T) {
	m1 := "@p1/1\nAAAA\n+\nIIII\n@p2/1\nCCCC\n+\nIIII\n"
	m2 := "@p1/2\nGGGG\n+\nIIII\n@p2/2\nTTTT\n+\nIIII\n"
	var out bytes.Buffer
	pairs, err := Interleave(strings.NewReader(m1), strings.NewReader(m2), &out)
	if err != nil || pairs != 2 {
		t.Fatalf("Interleave = %d, %v", pairs, err)
	}
	r := NewReader(&out)
	wantIDs := []string{"p1/1", "p1/2", "p2/1", "p2/2"}
	for _, want := range wantIDs {
		rec, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if string(rec.ID) != want {
			t.Errorf("got %q want %q", rec.ID, want)
		}
	}
}

func TestInterleaveMismatchedCounts(t *testing.T) {
	m1 := "@p1/1\nAAAA\n+\nIIII\n@p2/1\nCCCC\n+\nIIII\n"
	m2 := "@p1/2\nGGGG\n+\nIIII\n"
	var out bytes.Buffer
	if _, err := Interleave(strings.NewReader(m1), strings.NewReader(m2), &out); !errors.Is(err, ErrFormat) {
		t.Errorf("err = %v, want ErrFormat", err)
	}
}

// countRecords reads r to the end as FASTQ and returns Reader.Count.
func countRecords(r io.Reader) (int64, error) {
	fr := NewReader(r)
	for {
		if _, err := fr.Next(); err != nil {
			if err == io.EOF {
				err = nil
			}
			return fr.Count(), err
		}
	}
}

func TestCountRecords(t *testing.T) {
	n, err := countRecords(strings.NewReader(sample))
	if err != nil || n != 2 {
		t.Errorf("countRecords = %d, %v", n, err)
	}
	n, err = countRecords(strings.NewReader(""))
	if err != nil || n != 0 {
		t.Errorf("countRecords(empty) = %d, %v", n, err)
	}
}

func BenchmarkReader(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	seq := bytes.Repeat([]byte("ACGT"), 25)
	qual := bytes.Repeat([]byte("I"), 100)
	for i := 0; i < 1000; i++ {
		_ = w.Write(Record{ID: []byte("read"), Seq: seq, Qual: qual})
	}
	_ = w.Flush()
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(bytes.NewReader(data))
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			}
		}
	}
}

func BenchmarkWriter(b *testing.B) {
	seq := bytes.Repeat([]byte("ACGT"), 25)
	qual := bytes.Repeat([]byte("I"), 100)
	rec := Record{ID: []byte("read"), Seq: seq, Qual: qual}
	b.SetBytes(int64(len(rec.Bytes(nil))))
	w := NewWriter(io.Discard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Write(rec)
	}
	_ = w.Flush()
}

func TestOpenPlainAndGzip(t *testing.T) {
	dir := t.TempDir()
	content := []byte(sample)
	plain := filepath.Join(dir, "plain.fastq")
	os.WriteFile(plain, content, 0o644)
	gzPath := filepath.Join(dir, "comp.fastq.gz")
	var buf bytes.Buffer
	gw := gzip.NewWriter(&buf)
	gw.Write(content)
	gw.Close()
	os.WriteFile(gzPath, buf.Bytes(), 0o644)

	for _, path := range []string{plain, gzPath} {
		f, err := Open(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		n, err := countRecords(f)
		f.Close()
		if err != nil || n != 2 {
			t.Fatalf("%s: %d records, %v", path, n, err)
		}
	}
	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Error("Open accepted missing file")
	}
	// Corrupt gzip header after magic bytes.
	bad := filepath.Join(dir, "bad.gz")
	os.WriteFile(bad, []byte{0x1F, 0x8B, 0xFF}, 0o644)
	if _, err := Open(bad); err == nil {
		t.Error("Open accepted corrupt gzip")
	}
}
