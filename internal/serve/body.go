package serve

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

const (
	// bodyBufSize is a fresh pooled body buffer's capacity: one
	// 2048-event P64T batch (48 KiB of records plus its header) fits
	// without a grow.
	bodyBufSize = 64 << 10
	// maxPooledBody is the largest buffer the pool keeps; one grown for a
	// rare big body (a large snapshot) is left to the collector.
	maxPooledBody = 1 << 20
)

// bodyPool recycles request-body buffers for ReadBody.
var bodyPool = sync.Pool{
	New: func() any { return &Body{buf: make([]byte, 0, bodyBufSize)} },
}

// Body is a request body read into a pooled buffer. Its bytes stay
// valid until the last reference is dropped: the reader's own, dropped
// by Release, and one per NewReader, dropped when that reader is
// closed. Only then does the buffer go back to the pool, so a reader
// handed to an http.Transport, which may go on reading or close it
// after the response has arrived, never sees the buffer reused.
type Body struct {
	buf  []byte
	refs atomic.Int32
}

// ReadBody reads r to EOF into a pooled buffer that grows as bytes
// arrive: a declared Content-Length never sizes it, so a client that
// declares a huge body and sends little costs only what it sent. On a
// read error (such as the *http.MaxBytesError of a capped body) the
// buffer goes back to the pool and the error is returned.
func ReadBody(r io.Reader) (*Body, error) {
	b := bodyPool.Get().(*Body)
	b.refs.Store(1)
	buf := b.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)] // let append pick the growth
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			b.buf = buf
			if err == io.EOF {
				return b, nil
			}
			b.Release()
			return nil, err
		}
	}
}

// Bytes returns the body. The slice is valid until the body is
// released.
func (b *Body) Bytes() []byte { return b.buf }

// NewReader returns a reader over the body that holds a reference to
// its buffer until it is closed. Call it only while holding a
// reference yourself.
func (b *Body) NewReader() io.ReadCloser {
	if b.refs.Add(1) <= 1 {
		panic("serve: NewReader on a released Body")
	}
	return &bodyReader{b: b}
}

// Release drops the caller's reference; the last one returns the
// buffer to the pool.
func (b *Body) Release() {
	switch n := b.refs.Add(-1); {
	case n == 0:
		if cap(b.buf) <= maxPooledBody {
			b.buf = b.buf[:0]
			bodyPool.Put(b)
		}
	case n < 0:
		panic("serve: Body released more often than referenced")
	}
}

// bodyReader is one reader over a Body. A transport may close it from
// another goroutine while a read is under way; the mutex keeps that
// read from copying out of a buffer the pool has already handed on.
type bodyReader struct {
	mu     sync.Mutex
	b      *Body
	off    int
	closed bool
}

func (r *bodyReader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, errReadAfterClose
	}
	if r.off >= len(r.b.buf) {
		return 0, io.EOF
	}
	n := copy(p, r.b.buf[r.off:])
	r.off += n
	return n, nil
}

// Close drops the reader's reference; closing twice is a no-op.
func (r *bodyReader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.closed = true
		r.b.Release()
	}
	return nil
}

// errReadAfterClose is a read from a closed body reader.
var errReadAfterClose = errors.New("serve: read from a closed body")
