package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// recycleBody is the body of post k of client i: n bytes that differ
// between any two posts.
func recycleBody(i, k, n int) []byte {
	r := rand.New(rand.NewPCG(uint64(i), uint64(k)))
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(r.Uint32())
	}
	return b
}

// smallReadBuffers accepts connections with a 32 KiB socket receive
// buffer, so a sender blocks after some tens of kilobytes until the
// handler reads.
type smallReadBuffers struct{ net.Listener }

func (l smallReadBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		c.(*net.TCPConn).SetReadBuffer(32 << 10)
	}
	return c, err
}

// TestProxyBodyRecycleSafety posts many distinct bodies through the
// router at once. The backend answers some posts before reading their
// body, and reads the body only afterwards; others it answers without
// reading at all. Its small receive buffers keep the router's transport
// writing a body long after the reply has been relayed. Each post's
// pooled body buffer must stay intact until the transport is done with
// it: a backend that reads must see exactly the bytes its own request
// sent, even though the router has moved on to the next posts.
func TestProxyBodyRecycleSafety(t *testing.T) {
	var checked, mismatched atomic.Int64
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		i, _ := strconv.Atoi(q.Get("i"))
		k, _ := strconv.Atoi(q.Get("k"))
		n, _ := strconv.Atoi(q.Get("n"))
		answer := func() {
			// A reply of declared length is complete when flushed; a
			// chunked one would end only with the handler.
			reply := fmt.Sprintf("{\"i\":%d,\"k\":%d}\n", i, k)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
			io.WriteString(w, reply)
			w.(http.Flusher).Flush()
		}
		switch k % 3 {
		case 0: // answer, then read the body
			if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
				t.Error(err)
			}
			answer()
			// Outwait the transport, which after a reply waits 50 ms for
			// the body write to finish before it drops the connection
			// and hands the reply's end to the router.
			time.Sleep(time.Duration(k%2) * 60 * time.Millisecond)
		case 1: // answer and never read the body
			answer()
			return
		}
		got, err := io.ReadAll(r.Body)
		if err != nil {
			return // the router's transport gave up on the connection
		}
		checked.Add(1)
		if !bytes.Equal(got, recycleBody(i, k, n)) {
			mismatched.Add(1)
			t.Errorf("post %d/%d: backend read %d bytes that are not the %d the client sent", i, k, len(got), n)
		}
		if k%3 == 2 {
			answer()
		}
	}))
	backend.Listener = smallReadBuffers{backend.Listener}
	backend.Start()
	defer backend.Close()
	rt, err := New(Config{Backends: []string{backend.URL}, HealthEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// A fixed send buffer stops the kernel from growing it to swallow
	// whole bodies. The health loop is stopped first (Close stops only
	// that), so nothing dials while the transport changes.
	rt.Close()
	tr := rt.client.Transport.(*http.Transport)
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err == nil {
			c.(upstreamConn).Conn.(*net.TCPConn).SetWriteBuffer(32 << 10)
		}
		return c, err
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const clients, posts = 8, 12
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(i), 0))
			for k := 0; k < posts; k++ {
				n := 1 + r.IntN(64<<10)
				if k%3 == 0 {
					// Too big for the socket buffers, within the body
					// pool's size cap.
					n = 256<<10 + r.IntN(768<<10)
				}
				u := fmt.Sprintf("%s/v1/sessions/rc-%d/events?i=%d&k=%d&n=%d", front.URL, i, i, k, n)
				resp, err := http.Post(u, "application/octet-stream", bytes.NewReader(recycleBody(i, k, n)))
				if err != nil {
					t.Errorf("post %d/%d: %v", i, k, err)
					return
				}
				var got struct{ I, K int }
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || got.I != i || got.K != k {
					t.Errorf("post %d/%d: status %d, reply %+v (%v)", i, k, resp.StatusCode, got, err)
				}
			}
		}()
	}
	wg.Wait()
	if mismatched.Load() != 0 {
		t.Fatalf("%d of %d bodies the backend read were corrupt", mismatched.Load(), checked.Load())
	}
	if checked.Load() < clients*posts/3 { // every post the backend reads first
		t.Fatalf("the backend checked only %d bodies of %d posts", checked.Load(), clients*posts)
	}
}

// sendRaw writes a request with the given headers and body straight to
// addr's socket, half-closes it, and reads the reply, so the
// Content-Length can claim more bytes than follow.
func sendRaw(t *testing.T, addr, head string, body []byte) *http.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, head+"\r\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(body); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return resp
}

// TestProxyLyingContentLength: a declared body length is not trusted.
// A body shorter than declared answers 400, one over the router's
// MaxBody answers the 413 envelope TestRouterBodyTooLarge pins, and
// neither allocates anything near the declared size.
func TestProxyLyingContentLength(t *testing.T) {
	front, _ := newLoggedRouter(t, Config{MaxBody: 64})
	u, err := url.Parse(front)
	if err != nil {
		t.Fatal(err)
	}
	const declared = 60 << 20
	for _, tc := range []struct {
		name      string
		sent      int
		status    int
		code, msg string
	}{
		{"short", 32, http.StatusBadRequest, "bad_request", "unexpected EOF"},
		{"over_max_body", 1 << 10, http.StatusRequestEntityTooLarge, "body_too_large", "request body exceeds 64 bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rid := "lie-" + tc.name
			head := fmt.Sprintf("POST /v1/sessions/lie/events HTTP/1.1\r\nHost: %s\r\n"+
				"Content-Type: application/octet-stream\r\nContent-Length: %d\r\n%s: %s\r\n",
				u.Host, declared, telemetry.RequestIDHeader, rid)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp := sendRaw(t, u.Host, head, make([]byte, tc.sent))
			runtime.ReadMemStats(&after)
			var env serve.ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("status %d: reply is not an error envelope: %v", resp.StatusCode, err)
			}
			if resp.StatusCode != tc.status || env.Error.Code != tc.code || env.Error.Message != tc.msg || env.Error.RequestID != rid {
				t.Errorf("got %d %+v; want %d %s %q %s", resp.StatusCode, env.Error, tc.status, tc.code, tc.msg, rid)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= declared {
				t.Errorf("allocated %d bytes for a body that declared %d and sent %d", d, declared, tc.sent)
			}
		})
	}
}

// discardWriter is a ResponseWriter that keeps nothing but its header
// map, which each request clears.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestProxyBatchAllocations gates the proxy hop's garbage: relaying a
// 2048-event P64T batch must, in steady state, allocate less than a
// quarter of the body's size per request, counting the backend's and
// the test's own allocations too. Buffering the body with io.ReadAll,
// copying the reply with io.Copy and sending through a 4 KiB transport
// write buffer allocated several times the body size.
func TestProxyBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	reply := []byte("{\"events\":2048,\"total_events\":2048}\n")
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(reply)
	}))
	defer backend.Close()
	rt, err := New(Config{Backends: []string{backend.URL}, HealthEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	h := rt.Handler()

	batch := serve.EncodeBatch(testTrace().Events[:2048], 0)
	target, err := url.Parse("http://router/v1/sessions/alloc/events?seq=1")
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(batch)
	w := &discardWriter{h: http.Header{}}
	proxy := func() {
		rd.Reset(batch)
		clear(w.h)
		r := (&http.Request{
			Method: http.MethodPost, URL: target, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: http.Header{"Content-Type": {"application/octet-stream"}}, Host: "router",
			Body: io.NopCloser(rd), ContentLength: int64(len(batch)),
		}).WithContext(context.Background())
		h.ServeHTTP(w, r)
		if w.code != http.StatusOK {
			t.Fatalf("proxied batch answered %d", w.code)
		}
	}
	for i := 0; i < 50; i++ {
		proxy()
	}
	const n = 200
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		proxy()
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f bytes and %.1f allocations per proxied %d-byte batch",
		perReq, float64(after.Mallocs-before.Mallocs)/n, len(batch))
	if perReq >= float64(len(batch))/4 {
		t.Errorf("proxying a %d-byte batch allocates %.0f bytes per request; want under %d",
			len(batch), perReq, len(batch)/4)
	}
}
