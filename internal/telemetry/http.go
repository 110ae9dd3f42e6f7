package telemetry

import (
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// RequestIDHeader is the header that carries a request's correlation ID
// across tiers: bpload mints one per batch, bprouter mints one for any
// request arriving without it, and every hop logs it — so one ID
// follows a batch from the client through router retry/failover to
// whichever backend finally applied it.
const RequestIDHeader = "X-Request-Id"

// maxRequestID bounds accepted client-supplied IDs.
const maxRequestID = 128

// ValidRequestID reports whether a client-supplied request ID is safe
// to propagate into logs and label values: 1..128 bytes of
// [A-Za-z0-9._-]. Anything else is replaced by a minted ID rather than
// trusted.
func ValidRequestID(s string) bool {
	if len(s) == 0 || len(s) > maxRequestID {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '.' || c == '_' || c == '-' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return false
		}
	}
	return true
}

// IDs mints identifiers of the form <prefix><counter %06x>-<random %08x>:
// unique within the process by the counter, and unlikely to collide
// across processes by the random part. Safe for concurrent use.
type IDs struct {
	prefix string
	n      atomic.Uint64
}

// NewIDs returns a minter for IDs that start with prefix.
func NewIDs(prefix string) *IDs { return &IDs{prefix: prefix} }

// Next mints a fresh ID.
func (g *IDs) Next() string {
	return fmt.Sprintf("%s%06x-%08x", g.prefix, g.n.Add(1), rand.Uint32())
}

// LatencyBuckets are the request-latency histogram upper bounds in
// seconds (an implicit +Inf follows). Every tier uses the same grid, so
// router-side and backend-side latency distributions compare directly.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Edge is one tier's HTTP request policy: request-ID propagation, the
// body cap, per-endpoint status and latency accounting, the slow_request
// line and one access-log line per request. Each daemon builds one and
// wraps every route with it.
type Edge struct {
	service  string
	requests *CounterVec   // <service>_requests_total{endpoint,code}
	latency  *HistogramVec // <service>_request_seconds{endpoint}
	ids      *IDs
	log      *log.Logger
	slow     time.Duration // 0 disables the slow_request line
	maxBody  int64
	now      func() time.Time
}

// NewEdge registers the service's request families on reg and returns
// its middleware, logging to logger (not nil). It mints request IDs
// <service>-%06x-%08x and caps bodies at maxBody bytes; requests taking
// slow or longer on now's clock get a slow_request line (slow <= 0: none).
func NewEdge(service string, reg *Registry, logger *log.Logger, slow time.Duration, maxBody int64, now func() time.Time) *Edge {
	return &Edge{
		service:  service,
		requests: reg.CounterVec(service+"_requests_total", "HTTP requests by endpoint and status code.", "endpoint", "code"),
		latency:  reg.HistogramVec(service+"_request_seconds", "Request latency by endpoint.", LatencyBuckets, "endpoint"),
		ids:      NewIDs(service + "-"),
		log:      logger,
		slow:     slow,
		maxBody:  maxBody,
		now:      now,
	}
}

// ensureRequestID returns the request's correlation ID, minting one and
// setting it on the request headers when absent or invalid — so a
// proxied request (whose headers are forwarded) carries the same ID to
// the next tier.
func (e *Edge) ensureRequestID(r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if !ValidRequestID(id) {
		id = e.ids.Next()
		r.Header.Set(RequestIDHeader, id)
	}
	return id
}

// endpointStats are one endpoint's accounting handles, resolved once
// when the route is wrapped, so observing a request takes no lock and
// allocates nothing.
type endpointStats struct {
	codes *CodeCounter
	hist  *Histogram
}

func (e *Edge) endpoint(name string) endpointStats {
	return endpointStats{codes: NewCodeCounter(e.requests, name), hist: e.latency.With(name)}
}

func (s endpointStats) observe(code int, d time.Duration) {
	s.codes.Code(code).Inc()
	s.hist.ObserveDuration(d)
}

// statusWriter captures the response code and size for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Wrap applies the request policy to h, accounting it under endpoint.
// The request ID is echoed on the response before h runs, so error
// envelopes (and the client) can read it back.
func (e *Edge) Wrap(endpoint string, h http.HandlerFunc) http.Handler {
	stats := e.endpoint(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := e.now()
		rid := e.ensureRequestID(r)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		sw.Header().Set(RequestIDHeader, rid)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(sw, r.Body, e.maxBody)
		}
		h(sw, r)
		d := e.now().Sub(start)
		stats.observe(sw.code, d)
		if e.slow > 0 && d >= e.slow {
			e.log.Printf("slow_request service=%s endpoint=%s rid=%s status=%d dur_ms=%.1f",
				e.service, endpoint, rid, sw.code, float64(d.Microseconds())/1000)
		}
		e.log.Printf("method=%s path=%s endpoint=%s status=%d dur_us=%d bytes=%d rid=%s",
			r.Method, r.URL.Path, endpoint, sw.code, d.Microseconds(), sw.bytes, rid)
	})
}

// MountPprof serves the runtime profiles under /debug/pprof/ on mux.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
