package fastq

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// drainReader collects every record (cloned) and the terminating error from
// the streaming Reader.
func drainReader(data []byte) ([]Record, []int64, error) {
	r := NewReader(bytes.NewReader(data))
	var recs []Record
	var offs []int64
	for {
		rec, err := r.Next()
		if err != nil {
			return recs, offs, err
		}
		recs = append(recs, rec.Clone())
		offs = append(offs, r.Offset())
	}
}

// drainScanner collects every record and the terminating error from the
// zero-copy ChunkScanner. No cloning: scanner records stay valid.
func drainScanner(data []byte) ([]Record, []int64, error) {
	s := NewChunkScanner(data)
	var recs []Record
	var offs []int64
	for {
		rec, err := s.Next()
		if err != nil {
			return recs, offs, err
		}
		recs = append(recs, rec)
		offs = append(offs, s.Offset())
	}
}

// checkParity asserts the two parsers agree byte-for-byte on records,
// per-record offsets, and the terminating error.
func checkParity(t *testing.T, data []byte) {
	t.Helper()
	rRecs, rOffs, rErr := drainReader(data)
	sRecs, sOffs, sErr := drainScanner(data)
	if len(rRecs) != len(sRecs) {
		t.Fatalf("record count: Reader %d, ChunkScanner %d", len(rRecs), len(sRecs))
	}
	for i := range rRecs {
		if !Equal(rRecs[i], sRecs[i]) {
			t.Fatalf("record %d differs: Reader %q/%q/%q, ChunkScanner %q/%q/%q",
				i, rRecs[i].ID, rRecs[i].Seq, rRecs[i].Qual,
				sRecs[i].ID, sRecs[i].Seq, sRecs[i].Qual)
		}
		if rOffs[i] != sOffs[i] {
			t.Fatalf("record %d offset: Reader %d, ChunkScanner %d", i, rOffs[i], sOffs[i])
		}
	}
	if (rErr == nil) != (sErr == nil) {
		t.Fatalf("error presence differs: Reader %v, ChunkScanner %v", rErr, sErr)
	}
	if errors.Is(rErr, io.EOF) != errors.Is(sErr, io.EOF) ||
		errors.Is(rErr, ErrFormat) != errors.Is(sErr, ErrFormat) {
		t.Fatalf("error class differs: Reader %v, ChunkScanner %v", rErr, sErr)
	}
	if rErr != nil && !errors.Is(rErr, io.EOF) && rErr.Error() != sErr.Error() {
		t.Fatalf("error text differs:\n  Reader:       %v\n  ChunkScanner: %v", rErr, sErr)
	}
}

func TestChunkScannerParity(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"single":            "@r1\nACGT\n+\nIIII\n",
		"two records":       "@r1\nACGT\n+\nIIII\n@r2\nGGCC\n+\nJJJJ\n",
		"no final newline":  "@r1\nACGT\n+\nIIII",
		"crlf":              "@r1\r\nACGT\r\n+\r\nIIII\r\n",
		"crlf no final LF":  "@r1\r\nACGT\r\n+\r\nIIII\r",
		"plus with comment": "@r1\nACGT\n+r1 extra\nIIII\n",
		"empty seq":         "@r1\n\n+\n\n",
		"missing at":        "r1\nACGT\n+\nIIII\n",
		"empty header":      "\nACGT\n+\nIIII\n",
		"truncated header":  "@r1",
		"truncated seq":     "@r1\nACGT",
		"truncated sep":     "@r1\nACGT\n",
		"bad sep":           "@r1\nACGT\n-\nIIII\n",
		"empty sep":         "@r1\nACGT\n\nIIII\n",
		"truncated qual":    "@r1\nACGT\n+\n",
		"qual length":       "@r1\nACGT\n+\nIII\n",
		"second record bad": "@r1\nACGT\n+\nIIII\n@r2\nAC\n+\nI\n",
		"garbage":           "not fastq at all",
		"only newlines":     "\n\n\n\n",
		"blank then record": "\n@r1\nACGT\n+\nIIII\n",
		"lone cr line":      "@r1\nAC\rGT\n+\nIIIII\n",
		"nul bytes":         "@r\x001\nAC\n+\nII\n",
		"many records":      strings.Repeat("@r\nA\n+\nI\n", 500),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) { checkParity(t, []byte(data)) })
	}
}

// TestChunkScannerParityLongLine covers lines beyond the streaming Reader's
// 256 KiB bufio buffer, which exercise its ErrBufferFull accumulation path.
func TestChunkScannerParityLongLine(t *testing.T) {
	long := bytes.Repeat([]byte("ACGT"), 80<<10) // 320 KiB sequence
	var in bytes.Buffer
	in.WriteString("@long read 1\n")
	in.Write(long)
	in.WriteString("\n+\n")
	in.Write(bytes.Repeat([]byte("I"), len(long)))
	in.WriteString("\n@tail\nAC\n+\nII\n")
	checkParity(t, in.Bytes())

	// And a truncated variant ending inside the long quality line.
	trunc := in.Bytes()[:in.Len()/2]
	checkParity(t, trunc)
}

func TestChunkScannerZeroCopy(t *testing.T) {
	buf := []byte("@id one\nACGT\n+\nIIII\n")
	s := NewChunkScanner(buf)
	rec, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	// The record's fields must alias buf, not copies of it.
	buf[1] = 'X'
	buf[8] = 'T'
	if string(rec.ID) != "Xd one" || string(rec.Seq) != "TCGT" {
		t.Fatalf("fields are not views into the buffer: ID=%q Seq=%q", rec.ID, rec.Seq)
	}
}

func TestChunkScannerReset(t *testing.T) {
	s := NewChunkScanner([]byte("@a\nA\n+\nI\n"))
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s.Count())
	}
	s.Reset([]byte("@b\nCC\n+\nII\n"))
	if s.Count() != 0 || s.Offset() != 0 {
		t.Fatal("Reset did not rewind counters")
	}
	rec, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.ID) != "b" || string(rec.Seq) != "CC" {
		t.Fatalf("wrong record after Reset: %q/%q", rec.ID, rec.Seq)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("want io.EOF after last record, got %v", err)
	}
}

// drainScannerRaw collects records, raw spans and verbatim flags from
// NextRaw, plus the terminating error.
func drainScannerRaw(data []byte) ([]Record, [][]byte, []bool, error) {
	s := NewChunkScanner(data)
	var recs []Record
	var raws [][]byte
	var verbs []bool
	for {
		rec, raw, verbatim, err := s.NextRaw()
		if err != nil {
			return recs, raws, verbs, err
		}
		recs = append(recs, rec)
		raws = append(raws, raw)
		verbs = append(verbs, verbatim)
	}
}

// TestNextRawParity asserts NextRaw parses and fails exactly like Next on the
// full ChunkScanner corpus, and that its extras obey their contracts: raw
// spans tile the consumed buffer with no gaps, and verbatim is true exactly
// when raw equals the record's canonical Bytes encoding.
func TestNextRawParity(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"single":            "@r1\nACGT\n+\nIIII\n",
		"two records":       "@r1\nACGT\n+\nIIII\n@r2\nGGCC\n+\nJJJJ\n",
		"no final newline":  "@r1\nACGT\n+\nIIII",
		"crlf":              "@r1\r\nACGT\r\n+\r\nIIII\r\n",
		"cr qual only":      "@r1\nACGT\n+\nIIII\r\n@r2\nGG\n+\nJJ\n",
		"plus with comment": "@r1\nACGT\n+r1 extra\nIIII\n",
		"empty seq":         "@r1\n\n+\n\n",
		"missing at":        "r1\nACGT\n+\nIIII\n",
		"truncated seq":     "@r1\nACGT",
		"bad sep":           "@r1\nACGT\n-\nIIII\n",
		"qual length":       "@r1\nACGT\n+\nIII\n",
		"second record bad": "@r1\nACGT\n+\nIIII\n@r2\nAC\n+\nI\n",
		"mixed verbatim":    "@a\nAC\n+\nII\n@b\nGG\n+x\nJJ\n@c\nTT\n+\nKK\n",
		"many records":      strings.Repeat("@r\nA\n+\nI\n", 500),
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			data := []byte(input)
			nRecs, _, nErr := drainScanner(data)
			rRecs, raws, verbs, rErr := drainScannerRaw(data)
			if len(nRecs) != len(rRecs) {
				t.Fatalf("record count: Next %d, NextRaw %d", len(nRecs), len(rRecs))
			}
			if (nErr == nil) != (rErr == nil) ||
				errors.Is(nErr, io.EOF) != errors.Is(rErr, io.EOF) ||
				errors.Is(nErr, ErrFormat) != errors.Is(rErr, ErrFormat) {
				t.Fatalf("errors differ: Next %v, NextRaw %v", nErr, rErr)
			}
			if nErr != nil && !errors.Is(nErr, io.EOF) && nErr.Error() != rErr.Error() {
				t.Fatalf("error text differs:\n  Next:    %v\n  NextRaw: %v", nErr, rErr)
			}
			pos := 0
			for i := range rRecs {
				if !Equal(nRecs[i], rRecs[i]) {
					t.Fatalf("record %d differs between Next and NextRaw", i)
				}
				// Raw spans must tile the buffer: each starts where the
				// previous ended.
				if &raws[i][0] != &data[pos] {
					t.Fatalf("record %d: raw span does not start at offset %d", i, pos)
				}
				pos += len(raws[i])
				canon := rRecs[i].Bytes(nil)
				if got := bytes.Equal(raws[i], canon); got != verbs[i] {
					t.Fatalf("record %d: verbatim=%v but raw==canonical is %v (raw %q, canonical %q)",
						i, verbs[i], got, raws[i], canon)
				}
			}
		})
	}
}

// TestNextRawVerbatimFlags pins the verbatim decision per non-canonical
// feature: CRLF anywhere, a decorated '+' line, or a missing final newline
// must force re-encoding; canonical records must not.
func TestNextRawVerbatimFlags(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  []bool
	}{
		{"canonical", "@r1\nACGT\n+\nIIII\n", []bool{true}},
		{"crlf", "@r1\r\nACGT\r\n+\r\nIIII\r\n", []bool{false}},
		{"cr on qual only", "@r1\nACGT\n+\nIIII\r\n", []bool{false}},
		{"plus comment", "@r1\nACGT\n+r1\nIIII\n", []bool{false}},
		{"no final newline", "@r1\nACGT\n+\nIIII", []bool{false}},
		{"mixed", "@a\nAC\n+\nII\n@b\nGG\n+x\nJJ\n@c\nTT\n+\nKK", []bool{true, false, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, verbs, err := drainScannerRaw([]byte(tc.input))
			if !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			if len(verbs) != len(tc.want) {
				t.Fatalf("got %d records, want %d", len(verbs), len(tc.want))
			}
			for i := range tc.want {
				if verbs[i] != tc.want[i] {
					t.Errorf("record %d: verbatim = %v, want %v", i, verbs[i], tc.want[i])
				}
			}
		})
	}
}

// TestWriteRawMatchesWrite checks the two writer paths produce identical
// output and identical accounting for canonical input, one record at a time.
func TestWriteRawMatchesWrite(t *testing.T) {
	input := []byte("@r1 pair/1\nACGTACGT\n+\nIIIIJJJJ\n@r2\nGG\n+\nKK\n")

	var viaWrite bytes.Buffer
	wr := NewWriter(&viaWrite)
	var viaRaw bytes.Buffer
	rw := NewWriter(&viaRaw)

	s := NewChunkScanner(input)
	for {
		rec, raw, verbatim, err := s.NextRaw()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !verbatim {
			t.Fatalf("canonical input flagged non-verbatim: %q", raw)
		}
		if err := wr.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := rw.WriteRawN(raw, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaWrite.Bytes(), viaRaw.Bytes()) {
		t.Fatalf("outputs differ:\n  Write:    %q\n  WriteRaw: %q", viaWrite.Bytes(), viaRaw.Bytes())
	}
	if !bytes.Equal(viaRaw.Bytes(), input) {
		t.Fatalf("WriteRaw did not round-trip the input")
	}
	if wr.Count() != rw.Count() || wr.BytesWritten() != rw.BytesWritten() {
		t.Fatalf("accounting differs: Write (%d, %d), WriteRaw (%d, %d)",
			wr.Count(), wr.BytesWritten(), rw.Count(), rw.BytesWritten())
	}
}

// TestReaderVerbatim checks Reader.Verbatim agrees with the scanner's
// NextRaw verbatim classification on the same inputs — the index builder
// relies on it to mark chunks the zero-copy CC-I/O path may blit unparsed.
func TestReaderVerbatim(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  []bool
	}{
		{"canonical", "@r1\nACGT\n+\nIIII\n", []bool{true}},
		{"crlf", "@r1\r\nACGT\r\n+\r\nIIII\r\n", []bool{false}},
		{"cr on qual only", "@r1\nACGT\n+\nIIII\r\n", []bool{false}},
		{"plus comment", "@r1\nACGT\n+r1\nIIII\n", []bool{false}},
		{"no final newline", "@r1\nACGT\n+\nIIII", []bool{false}},
		{"mixed", "@a\nAC\n+\nII\n@b\nGG\n+x\nJJ\n@c\nTT\n+\nKK", []bool{true, false, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(strings.NewReader(tc.input))
			var got []bool
			for {
				_, err := r.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, r.Verbatim())
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d records, want %d", len(got), len(tc.want))
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Errorf("record %d: Verbatim = %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}
