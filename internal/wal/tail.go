package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// This file is the log's export surface for replication: an in-memory tail
// of recent records with absolute sequence numbers (Options.TailRecords),
// a notification channel for long-poll readers, and the WAL frame format
// exposed as a wire codec (EncodeFrame / FrameReader) so the bytes a
// follower receives are re-verified by the same CRC discipline the on-disk
// log uses.

// SeqRecord is one appended record together with its absolute sequence
// number. Sequences start at 1 for the first record appended after Open and
// are process-lifetime only: they do not survive a restart (the replication
// layer's epoch makes that safe — see internal/replica).
type SeqRecord struct {
	Seq uint64
	Record
}

// ErrCorruptFrame reports a frame whose header, checksum or payload failed
// validation while decoding a stream (see FrameReader).
var ErrCorruptFrame = errors.New("wal: corrupt frame")

// closedChan is returned by AppendNotify on a closed log so waiters wake
// immediately instead of blocking until their timeout.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// recordAppendedLocked numbers one acknowledged append, retains it in the
// tail ring (when enabled) and wakes long-poll readers. Caller holds l.mu.
func (l *Log) recordAppendedLocked(op Op, name string, data []byte) {
	l.recSeq++
	if n := l.opts.TailRecords; n > 0 {
		// The caller keeps ownership of data; the ring stores a copy so a
		// later ReadAfter can hand frames out without aliasing anything the
		// application may still reuse.
		var cp []byte
		if len(data) > 0 {
			cp = append([]byte(nil), data...)
		}
		sr := SeqRecord{Seq: l.recSeq, Record: Record{Op: op, Name: name, Data: cp}}
		if len(l.tailRecs) < n {
			l.tailRecs = append(l.tailRecs, sr)
		} else {
			l.tailRecs[l.tailPos] = sr
			l.tailPos = (l.tailPos + 1) % n
		}
	}
	if l.notifyc != nil {
		close(l.notifyc)
		l.notifyc = nil
	}
}

// HeadSeq returns the sequence number of the most recently appended record
// (0 before the first append). It advances on every acknowledged append
// whether or not a tail is retained.
func (l *Log) HeadSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recSeq
}

// ReadAfter returns up to max records with sequence numbers strictly greater
// than after, in order. gap reports that the requested position has been
// evicted from the tail (or that no tail is retained): the reader cannot
// resume incrementally and must bootstrap from a snapshot. An empty result
// with gap == false means the reader is caught up; combine with
// AppendNotify to wait for more. The returned records share storage with
// the tail ring and must not be mutated.
func (l *Log) ReadAfter(after uint64, max int) (recs []SeqRecord, gap bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after >= l.recSeq {
		return nil, false
	}
	n := len(l.tailRecs)
	if n == 0 {
		return nil, true // records exist but no tail is retained
	}
	oldest := l.recSeq - uint64(n) + 1
	if after+1 < oldest {
		return nil, true
	}
	count := int(l.recSeq - after)
	if max > 0 && count > max {
		count = max
	}
	recs = make([]SeqRecord, 0, count)
	for i := 0; i < count; i++ {
		off := int(after + 1 - oldest + uint64(i))
		recs = append(recs, l.tailRecs[(l.tailPos+off)%n])
	}
	return recs, false
}

// AppendNotify returns a channel that is closed by the next acknowledged
// append (or by Close). Callers re-arm by calling AppendNotify again; take
// the channel *before* the ReadAfter whose emptiness you are waiting out,
// or an append between the two is missed until the next one.
func (l *Log) AppendNotify() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return closedChan
	}
	if l.notifyc == nil {
		l.notifyc = make(chan struct{})
	}
	return l.notifyc
}

// EncodeFrame appends rec to buf in the WAL's on-disk frame format
// (uint32 length | uint32 CRC-32C | op | uint16 name length | name | data)
// and returns the extended buffer. The same bytes a WAL file holds are the
// replication wire format.
func EncodeFrame(buf []byte, rec Record) []byte {
	return appendFrame(buf, rec.Op, rec.Name, rec.Data)
}

// FrameWriter streams WAL frames to an io.Writer — a snapshot temp file or
// a replication response. Each record is rendered and framed in one reused
// buffer and written before the next is rendered, so a stream of any
// length holds one record at a time. The bytes are exactly those of
// EncodeFrame.
type FrameWriter struct {
	w       io.Writer
	buf     []byte
	written int64
}

// NewFrameWriter returns a FrameWriter over w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w}
}

// WriteFunc frames one record whose data appendData appends to the buffer
// it is given (returning the extended slice, as strconv.AppendInt does),
// and writes the frame. appendData renders into the writer's reused
// buffer, so the record data is never copied.
func (fw *FrameWriter) WriteFunc(op Op, name string, appendData func([]byte) []byte) error {
	if len(name) > maxNameBytes {
		return fmt.Errorf("wal: document name exceeds %d bytes", maxNameBytes)
	}
	fw.buf = sealFrame(appendData(beginFrame(fw.buf[:0], op, name)), 0)
	n, err := fw.w.Write(fw.buf)
	fw.written += int64(n)
	return err
}

// Written reports how many bytes have been written to the underlying
// writer.
func (fw *FrameWriter) Written() int64 { return fw.written }

// FrameReader decodes a stream of WAL frames from r, re-verifying each
// frame's CRC — a follower applying a replication stream trusts nothing the
// transport did not checksum.
type FrameReader struct {
	r   io.Reader
	buf []byte
	err error // sticky: nothing is decoded past a bad frame
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// payloadChunk bounds how far the payload buffer grows ahead of the bytes
// actually read: a torn or hostile length field costs what arrived, not
// the maxRecordBytes it claims.
const payloadChunk = 64 << 10

// Next decodes one frame. It returns io.EOF at a clean frame boundary and
// an error wrapping ErrCorruptFrame for torn headers, checksum mismatches
// or undecodable payloads. Errors are sticky: once Next fails, every later
// call returns the same error.
func (fr *FrameReader) Next() (Record, error) {
	if fr.err != nil {
		return Record{}, fr.err
	}
	rec, err := fr.next()
	if err != nil {
		fr.err = err
	}
	return rec, err
}

func (fr *FrameReader) next() (Record, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: torn header: %v", ErrCorruptFrame, err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if n > maxRecordBytes {
		return Record{}, fmt.Errorf("%w: implausible payload length %d", ErrCorruptFrame, n)
	}
	payload := fr.buf[:0]
	for len(payload) < n {
		chunk := min(n-len(payload), payloadChunk)
		payload = slices.Grow(payload, chunk)
		m, err := io.ReadFull(fr.r, payload[len(payload):len(payload)+chunk])
		payload = payload[:len(payload)+m]
		if err != nil {
			return Record{}, fmt.Errorf("%w: torn payload: %v", ErrCorruptFrame, err)
		}
	}
	fr.buf = payload
	if crc32.Checksum(payload, crcTable) != crc {
		return Record{}, fmt.Errorf("%w: checksum mismatch", ErrCorruptFrame)
	}
	rec, ok := decodePayload(payload)
	if !ok {
		return Record{}, fmt.Errorf("%w: undecodable payload", ErrCorruptFrame)
	}
	return rec, nil
}
