package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"metaprep/internal/container"
)

// labels.go persists component label arrays so downstream tools can consume
// a partitioning without re-running the pipeline or rewriting FASTQ: the
// file maps every global read ID to its component root.

// labelsMagic identifies a serialized label array; the digit is the format
// version.
const labelsMagic = "MPREPLB1"

// ErrBadLabels is the sentinel wrapped by every structural error LoadLabels
// returns: wrong magic, a truncated file, or a count the file size does not
// hold.
var ErrBadLabels = errors.New("core: bad label file")

// SaveLabels writes a component label array to path atomically and
// durably (container.WriteFile).
func SaveLabels(path string, labels []uint32) error {
	return container.WriteFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, labelsMagic); err != nil {
			return err
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint64(hdr[:], uint64(len(labels)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		var b [4]byte
		for _, l := range labels {
			binary.LittleEndian.PutUint32(b[:], l)
			if _, err := w.Write(b[:]); err != nil {
				return err
			}
		}
		return nil
	})
}

// LoadLabels reads a label array written by SaveLabels. The header's count
// must match the file size before anything is allocated.
func LoadLabels(path string) ([]uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var hdr [len(labelsMagic) + 8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %s: reading header: %v", ErrBadLabels, path, err)
	}
	if string(hdr[:len(labelsMagic)]) != labelsMagic {
		return nil, fmt.Errorf("%w: %s is not a label file", ErrBadLabels, path)
	}
	n := binary.LittleEndian.Uint64(hdr[len(labelsMagic):])
	body := st.Size() - int64(len(hdr))
	if body%4 != 0 || n != uint64(body/4) {
		return nil, fmt.Errorf("%w: %s: header counts %d labels, file holds %d bytes", ErrBadLabels, path, n, st.Size())
	}
	labels := make([]uint32, n)
	br := bufio.NewReaderSize(f, 1<<20)
	buf := make([]byte, 4)
	for i := range labels {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("%w: %s: truncated at label %d: %v", ErrBadLabels, path, i, err)
		}
		labels[i] = binary.LittleEndian.Uint32(buf)
	}
	return labels, nil
}
