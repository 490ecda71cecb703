// Package codec is the one binary codec behind Genie's wire formats: the
// SRG encoding and its plan diff (package srg) and every transport
// message (package transport) append through a Writer and read back
// through a Reader, under the same little-endian rules.
//
// A Writer appends to a slice the caller owns, so an encoding can land
// straight in a pooled frame buffer. A Reader is bounds-checked and its
// first failure sticks: every later read returns zero values, so a
// decoder reads a whole message and checks Err once. Malformed input is
// an error, never a panic or an allocation sized by an unchecked length.
// Errors are plain; each format types them for its own callers.
package codec

import (
	"encoding/binary"
	"fmt"
)

// MaxStr is the longest string a u16 length prefix carries.
const MaxStr = 0xffff

// Writer appends little-endian fields to B. Its one failure, a string
// longer than MaxStr, sticks: the string is not written and Err reports
// it, so the bytes in B no longer form a valid encoding.
type Writer struct {
	B   []byte
	err error
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.B = append(w.B, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.B = binary.LittleEndian.AppendUint16(w.B, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.B = binary.LittleEndian.AppendUint32(w.B, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.B = binary.LittleEndian.AppendUint64(w.B, v) }

// Raw appends p as is.
func (w *Writer) Raw(p []byte) { w.B = append(w.B, p...) }

// Str appends s behind a u16 length prefix.
func (w *Writer) Str(s string) {
	if len(s) > MaxStr {
		if w.err == nil {
			w.err = fmt.Errorf("string of %d bytes exceeds the %d-byte limit", len(s), MaxStr)
		}
		return
	}
	w.U16(uint16(len(s)))
	w.B = append(w.B, s...)
}

// SetU32 overwrites the four bytes at off, a field reserved by an
// earlier U32 whose value (a count or a length) is known only later.
func (w *Writer) SetU32(off int, v uint32) { binary.LittleEndian.PutUint32(w.B[off:], v) }

// Err returns the writer's first failure, or nil.
func (w *Writer) Err() error { return w.err }

// Reader reads what a Writer appended.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b. Take aliases b; every other read
// copies.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Fail records a decode failure at the current offset unless one is
// already recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), r.off)
	}
}

// Err returns the reader's first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Take returns the next n bytes, aliasing the input, or nil once the
// reader has failed or fewer than n bytes remain (which fails it).
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.Fail("short buffer: %d bytes wanted, %d left", n, len(r.b)-r.off)
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Str reads a u16-length-prefixed string.
func (r *Reader) Str() string { return string(r.Take(int(r.U16()))) }
