package fastq

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the parser: it must never panic, and
// everything it accepts must round-trip through the writer.
func FuzzReader(f *testing.F) {
	f.Add([]byte(sample))
	f.Add([]byte("@x\nACGT\n+\nIIII"))
	f.Add([]byte("@\n\n+\n\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte("@a\r\nAC\r\n+\r\nII\r\n"))
	f.Add(bytes.Repeat([]byte("@r\nA\n+\nI\n"), 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var recs []Record
		for {
			rec, err := r.Next()
			if err != nil {
				break
			}
			// Fields containing '\r' parse fine but cannot be re-encoded
			// faithfully (the reader normalizes CRLF), so exclude them from
			// the round-trip oracle.
			if bytes.ContainsRune(rec.ID, '\r') || bytes.ContainsRune(rec.Seq, '\r') ||
				bytes.ContainsRune(rec.Qual, '\r') {
				continue
			}
			recs = append(recs, rec.Clone())
		}
		// Round trip whatever parsed.
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		rr := NewReader(&buf)
		for i := range recs {
			got, err := rr.Next()
			if err != nil {
				t.Fatalf("record %d did not round trip: %v", i, err)
			}
			if !Equal(got, recs[i]) {
				t.Fatalf("record %d changed in round trip", i)
			}
		}
		if _, err := rr.Next(); err != io.EOF {
			t.Fatalf("extra records after round trip: %v", err)
		}
	})
}

// FuzzScannerParity checks that the zero-copy ChunkScanner and the streaming
// Reader are observationally identical on arbitrary bytes: same records in
// the same order, same terminating error class and text.
func FuzzScannerParity(f *testing.F) {
	f.Add([]byte(sample))
	f.Add([]byte("@x\nACGT\n+\nIIII"))
	f.Add([]byte("@\n\n+\n\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte("@a\r\nAC\r\n+\r\nII\r\n"))
	f.Add(bytes.Repeat([]byte("@r\nA\n+\nI\n"), 100))
	f.Add([]byte("@r1\nACGT\n+\nIII\n"))
	f.Add([]byte("@r1\nACGT\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		s := NewChunkScanner(data)
		for i := 0; ; i++ {
			rRec, rErr := r.Next()
			sRec, sErr := s.Next()
			if (rErr == nil) != (sErr == nil) {
				t.Fatalf("record %d: Reader err %v, ChunkScanner err %v", i, rErr, sErr)
			}
			if rErr != nil {
				if (rErr == io.EOF) != (sErr == io.EOF) ||
					rErr != io.EOF && rErr.Error() != sErr.Error() {
					t.Fatalf("record %d: errors differ:\n  Reader:       %v\n  ChunkScanner: %v", i, rErr, sErr)
				}
				return
			}
			if !Equal(rRec, sRec) {
				t.Fatalf("record %d differs: Reader %q/%q/%q, ChunkScanner %q/%q/%q",
					i, rRec.ID, rRec.Seq, rRec.Qual, sRec.ID, sRec.Seq, sRec.Qual)
			}
			if r.Offset() != s.Offset() || r.Count() != s.Count() {
				t.Fatalf("record %d: offset/count diverge: Reader %d/%d, ChunkScanner %d/%d",
					i, r.Offset(), r.Count(), s.Offset(), s.Count())
			}
		}
	})
}
