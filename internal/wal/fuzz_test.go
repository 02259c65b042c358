package wal

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// countingReader reports how many bytes its reader has handed out.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzFrameReader checks the decoder a follower runs on bytes from the
// network. Every record it yields re-encodes to exactly the bytes it
// consumed — so the frame's CRC covered the whole record — a clean EOF
// comes only at the end of the input, any other failure is an
// ErrCorruptFrame, and after a failure the reader yields nothing more.
func FuzzFrameReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cr := &countingReader{r: bytes.NewReader(data)}
		fr := NewFrameReader(cr)
		for {
			before := cr.n
			rec, err := fr.Next()
			if err != nil {
				if err == io.EOF {
					if before != len(data) {
						t.Fatalf("clean EOF at offset %d of %d", before, len(data))
					}
				} else if !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("error %v does not wrap ErrCorruptFrame", err)
				}
				if rec, again := fr.Next(); again != err {
					t.Fatalf("after %v, Next returned %+v, %v", err, rec, again)
				}
				return
			}
			if got := EncodeFrame(nil, rec); !bytes.Equal(got, data[before:cr.n]) {
				t.Fatalf("record %+v re-encodes to %q, but the reader consumed %q", rec, got, data[before:cr.n])
			}
		}
	})
}
