// Package wire provides the little-endian byte-slice codec the durable
// predictor-state snapshots are built on (internal/snap and the
// AppendState/LoadState implementations in internal/bpred and
// internal/core). Writers append fixed-width values to a byte slice;
// readers walk a Cursor with sticky-error bounds checking, so a
// truncated or hostile input degrades to an error instead of a panic.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated reports a read past the end of the input.
var ErrTruncated = errors.New("wire: truncated input")

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU32 appends a little-endian uint32.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendBool appends a bool as one byte (0 or 1).
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendSized appends a u32 length prefix followed by what app appends,
// the layout Cursor.Bytes reads. The prefix is reserved, app appends
// straight into b, and the prefix is patched to the length app added,
// so the bytes are never built in a slice of their own and copied.
func AppendSized(b []byte, app func([]byte) []byte) []byte {
	at := len(b)
	b = AppendU32(b, 0)
	b = app(b)
	binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
}

// AppendString appends a u32 length prefix followed by the string bytes.
func AppendString(b []byte, s string) []byte {
	b = AppendU32(b, uint32(len(s)))
	return append(b, s...)
}

// Cursor reads values sequentially from a byte slice. The first failed
// read (out-of-bounds, bad encoding) latches an error; subsequent reads
// return zero values, so decode loops need only one error check at the
// end via Err.
type Cursor struct {
	data []byte
	off  int
	err  error
}

// NewCursor returns a cursor over data. The cursor does not copy; the
// caller must not mutate data while reading.
func NewCursor(data []byte) *Cursor { return &Cursor{data: data} }

// Err returns the first read error, or nil.
func (c *Cursor) Err() error { return c.err }

// Fail latches err (if the cursor has not already failed) and returns it.
// Decoders use it to report semantic validation errors through the same
// sticky channel as bounds errors.
func (c *Cursor) Fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return c.err
}

// Remaining returns the number of unread bytes.
func (c *Cursor) Remaining() int { return len(c.data) - c.off }

// Done returns nil if the cursor consumed its input exactly, an error
// otherwise (a prior read error, or trailing bytes).
func (c *Cursor) Done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.data) {
		return fmt.Errorf("wire: %d trailing bytes", len(c.data)-c.off)
	}
	return nil
}

// Take returns the next n bytes (aliasing the input, not a copy).
func (c *Cursor) Take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.data) {
		c.err = ErrTruncated
		return nil
	}
	p := c.data[c.off : c.off+n]
	c.off += n
	return p
}

// U8 reads one byte.
func (c *Cursor) U8() uint8 {
	p := c.Take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 {
	p := c.Take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 {
	p := c.Take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// Bool reads one byte that must be exactly 0 or 1. The strictness keeps
// the format canonical: every valid snapshot has exactly one encoding.
func (c *Cursor) Bool() bool {
	switch c.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		c.Fail(errors.New("wire: bool byte not 0 or 1"))
		return false
	}
}

// Bytes reads a u32 length prefix and the following bytes (aliasing the
// input). The length is bounds-checked against the remaining input
// before any allocation, so a hostile prefix cannot force one.
func (c *Cursor) Bytes() []byte {
	n := c.U32()
	if c.err != nil {
		return nil
	}
	if int64(n) > int64(c.Remaining()) {
		c.err = ErrTruncated
		return nil
	}
	return c.Take(int(n))
}

// String reads a u32 length prefix and the following string.
func (c *Cursor) String() string { return string(c.Bytes()) }
