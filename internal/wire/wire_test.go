package wire

import (
	"errors"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendU8(buf, 0xAB)
	buf = AppendU32(buf, 0xDEADBEEF)
	buf = AppendU64(buf, 1<<63|42)
	buf = AppendBool(buf, true)
	buf = AppendBool(buf, false)
	buf = AppendSized(buf, func(b []byte) []byte { return append(b, 1, 2, 3) })
	buf = AppendString(buf, "hello")

	c := NewCursor(buf)
	if got := c.U8(); got != 0xAB {
		t.Fatalf("U8: %x", got)
	}
	if got := c.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32: %x", got)
	}
	if got := c.U64(); got != 1<<63|42 {
		t.Fatalf("U64: %x", got)
	}
	if !c.Bool() || c.Bool() {
		t.Fatal("Bool round trip")
	}
	if got := c.Bytes(); string(got) != "\x01\x02\x03" {
		t.Fatalf("Bytes: %v", got)
	}
	if got := c.String(); got != "hello" {
		t.Fatalf("String: %q", got)
	}
	if err := c.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestCursorErrors(t *testing.T) {
	// Truncated reads leave a sticky error and return zero values.
	c := NewCursor([]byte{1, 2})
	if got := c.U32(); got != 0 {
		t.Fatalf("truncated U32 returned %d", got)
	}
	if !errors.Is(c.Err(), ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", c.Err())
	}
	// Subsequent reads stay failed.
	if c.U8() != 0 || c.Err() == nil {
		t.Fatal("cursor error not sticky")
	}

	// Non-canonical bool byte.
	c = NewCursor([]byte{2})
	c.Bool()
	if c.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}

	// Length prefix larger than the remaining input.
	c = NewCursor(AppendU32(nil, 1<<30))
	if c.Bytes() != nil || !errors.Is(c.Err(), ErrTruncated) {
		t.Fatal("oversized length prefix accepted")
	}

	// Unconsumed trailing bytes.
	c = NewCursor([]byte{0})
	if err := c.Done(); err == nil {
		t.Fatal("Done accepted trailing bytes")
	}
}
