package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestBodyReferences: a body's bytes outlive its reader's Release while
// any NewReader is open; the last Close returns it to the pool, and a
// second Close does nothing.
func TestBodyReferences(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789abcdef"), 10<<10) // grows past a fresh buffer
	b, err := ReadBody(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("read %d bytes, want the %d sent", len(b.Bytes()), len(want))
	}
	r1, r2 := b.NewReader(), b.NewReader()
	b.Release()
	got, err := io.ReadAll(r1)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("reader after Release: %d bytes, %v", len(got), err)
	}
	r1.Close()
	r1.Close()
	if n := b.refs.Load(); n != 1 {
		t.Fatalf("%d references after the first reader closed twice, want 1", n)
	}
	r2.Close()
	if _, err := r2.Read(make([]byte, 1)); !errors.Is(err, errReadAfterClose) {
		t.Fatalf("read after Close: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewReader on a released body did not panic")
		}
	}()
	b.NewReader()
}

// TestReadBodyCapped: a body over the edge's cap fails with the
// *http.MaxBytesError WriteBodyError turns into 413.
func TestReadBodyCapped(t *testing.T) {
	r := httptest.NewRequest("POST", "/", bytes.NewReader(make([]byte, 100)))
	_, err := ReadBody(http.MaxBytesReader(httptest.NewRecorder(), r.Body, 64))
	var maxErr *http.MaxBytesError
	if !errors.As(err, &maxErr) || maxErr.Limit != 64 {
		t.Fatalf("err %v, want a 64-byte *http.MaxBytesError", err)
	}
}
