// Package rowenc is a small codec for fixed-schema rows stored in heap
// records: unsigned ints, signed ints, strings, and byte slices with
// length prefixes, little-endian throughout.
package rowenc

import (
	"encoding/binary"
	"errors"
)

// ErrCorrupt reports a malformed row.
var ErrCorrupt = errors.New("rowenc: corrupt row")

// Writer accumulates an encoded row.
type Writer struct{ buf []byte }

// NewWriter returns a writer with capacity for n bytes.
func NewWriter(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// Uint32 appends a fixed 32-bit value.
func (w *Writer) Uint32(v uint32) *Writer {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	return w
}

// Uint64 appends a fixed 64-bit value.
func (w *Writer) Uint64(v uint64) *Writer {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	return w
}

// Int64 appends a signed 64-bit value.
func (w *Writer) Int64(v int64) *Writer { return w.Uint64(uint64(v)) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) *Writer {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(s)))
	w.buf = append(w.buf, s...)
	return w
}

// Bytes appends a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) *Writer {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(b)))
	w.buf = append(w.buf, b...)
	return w
}

// Done returns the encoded row.
func (w *Writer) Done() []byte { return w.buf }

// Reader decodes a row encoded by Writer. Decoding errors are sticky:
// check Err once after all fields are read.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over an encoded row.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err reports the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.buf) {
		if r.err == nil {
			r.err = ErrCorrupt
		}
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Uint32 reads a fixed 32-bit value.
func (r *Reader) Uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Uint64 reads a fixed 64-bit value.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int64 reads a signed 64-bit value.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.Uint32())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Bytes reads a length-prefixed byte slice (aliased into the row).
func (r *Reader) Bytes() []byte {
	n := int(r.Uint32())
	return r.take(n)
}

// Count reads the element count of a list whose elements each encode
// to at least min bytes (min > 0). A count the bytes left cannot hold
// fails the reader with ErrCorrupt and reads as 0, so a corrupt or
// hostile count never drives an allocation or a loop.
func (r *Reader) Count(min int) int {
	n := r.Uint32()
	if r.err == nil && uint64(n)*uint64(min) > uint64(r.Remaining()) {
		r.err = ErrCorrupt
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Remaining reports how many bytes are left undecoded.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }
