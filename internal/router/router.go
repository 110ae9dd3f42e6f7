// Package router is the cluster front tier for bpservd backends: a
// session-affine HTTP proxy that consistent-hashes session IDs across N
// backends, health-checks them, retries around dead ones, and migrates
// sessions off draining backends with P64S snapshots (internal/snap via
// the backends' snapshot/restore endpoints).
//
// Placement is a consistent-hash ring with virtual nodes, so adding or
// removing one backend remaps only ~1/N of the sessions. The router
// generates session IDs itself on create (clients may also supply one),
// which is what lets it place a session on the ring before the session
// exists. Batch retries around a failed backend are safe because the
// serving tier deduplicates by batch sequence number, and state survives
// backend death because backends share a spill directory: the replacement
// backend warm-restores the session from the dead backend's last spill
// (shutdown drain or eviction), and seq dedup absorbs the client's
// retried batch.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Backend is one bpservd instance behind the router.
type Backend struct {
	// URL is the backend's base URL, e.g. "http://127.0.0.1:8080".
	URL string

	healthy  atomic.Bool
	draining atomic.Bool
}

// Healthy reports the last health-check outcome (or proxy failure).
func (b *Backend) Healthy() bool { return b.healthy.Load() }

// Draining reports whether the backend is being emptied for removal.
func (b *Backend) Draining() bool { return b.draining.Load() }

// up reports whether the ring may place sessions on the backend.
func (b *Backend) up() bool { return b.healthy.Load() && !b.draining.Load() }

// Config parameterises the router.
type Config struct {
	// Backends are the bpservd base URLs. At least one is required.
	Backends []string
	// VNodes is the number of ring points per backend (default 64).
	VNodes int
	// HealthEvery is the health-check interval (default 1s).
	HealthEvery time.Duration
	// Timeout bounds one proxied request (default 30s).
	Timeout time.Duration
	// MaxBody caps a buffered request body (default 64 MiB).
	MaxBody int64
	// SlowRequest is the latency threshold above which a request gets a
	// structured slow_request log line; 0 disables.
	SlowRequest time.Duration
	// Logger receives router events; nil discards.
	Logger *log.Logger
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Backends) == 0 {
		return c, errors.New("router: no backends configured")
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 64 << 20
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	return c, nil
}

// ringPoint is one virtual node: a position on the hash circle owned by
// a backend.
type ringPoint struct {
	hash    uint64
	backend int
}

// Router proxies the bpservd session API across a backend fleet.
type Router struct {
	cfg      Config
	backends []*Backend
	ring     []ringPoint // sorted by hash
	client   *http.Client
	mux      *http.ServeMux
	log      *log.Logger

	idctr  atomic.Uint64
	idsalt uint64

	mt    *routerMetrics
	trace *telemetry.Tracer

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// hash64 is FNV-64a with a murmur-style finalizer. The finalizer
// matters: raw FNV of short strings that differ only in a trailing
// vnode digit yields near-consecutive values, which collapses each
// backend's virtual nodes into a few giant arcs and destroys the
// ring's balance.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// New builds a Router and starts its health-check loop.
func New(cfg Config) (*Router, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.Timeout},
		mux:    http.NewServeMux(),
		log:    cfg.Logger,
		idsalt: rand.Uint64(),
		mt:     newRouterMetrics(),
		trace:  telemetry.NewTracer("bprouter", cfg.Logger, cfg.SlowRequest),
		stop:   make(chan struct{}),
	}
	for i, u := range cfg.Backends {
		b := &Backend{URL: strings.TrimRight(u, "/")}
		b.healthy.Store(true) // optimistic until the first check
		rt.backends = append(rt.backends, b)
		for v := 0; v < cfg.VNodes; v++ {
			rt.ring = append(rt.ring, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", b.URL, v)), backend: i})
		}
	}
	sort.Slice(rt.ring, func(i, j int) bool { return rt.ring[i].hash < rt.ring[j].hash })
	rt.mt.reg.GaugeVec("bprouter_backend_healthy", "Backend health by base URL (1 healthy, 0 not).",
		[]string{"backend"}, func(emit func([]string, float64)) {
			for _, b := range rt.backends {
				v := 0.0
				if b.Healthy() {
					v = 1
				}
				emit([]string{b.URL}, v)
			}
		})
	rt.mt.reg.GaugeVec("bprouter_backend_draining", "Backend draining state by base URL.",
		[]string{"backend"}, func(emit func([]string, float64)) {
			for _, b := range rt.backends {
				v := 0.0
				if b.Draining() {
					v = 1
				}
				emit([]string{b.URL}, v)
			}
		})

	rt.mux.Handle("POST /v1/sessions", rt.instrument("create_session", rt.handleCreate))
	rt.mux.Handle("GET /v1/sessions", rt.instrument("list_sessions", rt.handleList))
	rt.mux.Handle("/v1/sessions/{id}", rt.instrument("session", rt.handleSession))
	rt.mux.Handle("/v1/sessions/{id}/{rest...}", rt.instrument("session", rt.handleSession))
	rt.mux.Handle("/v1/", rt.instrument("proxy", rt.handleAny)) // sweeps, predictors, workloads
	rt.mux.Handle("GET /healthz", rt.instrument("healthz", rt.handleHealthz))
	rt.mux.Handle("GET /metrics", rt.instrument("metrics", rt.handleMetrics))
	rt.mux.Handle("POST /admin/drain", rt.instrument("drain", rt.handleDrain))
	rt.mux.HandleFunc("/debug/pprof/", pprof.Index)
	rt.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	rt.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	rt.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	rt.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	rt.wg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the health-check loop.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

// Backends exposes the fleet for tests and the drain admin path.
func (rt *Router) Backends() []*Backend { return rt.backends }

// statusWriter captures the response code for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request-ID propagation, per-endpoint
// latency/status accounting, span recording, and one structured log
// line per request. Handles are resolved here, once per endpoint at
// route-registration time, so the per-request path does not allocate
// for accounting.
func (rt *Router) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	hist := rt.mt.latency.With(endpoint)
	codes := telemetry.NewCodeCounter(rt.mt.requests, endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// EnsureRequestID writes a minted ID back onto r.Header, and
		// forward clones r.Header into the upstream request — so the
		// same ID reaches the backend, whichever backend retries land on.
		rid := rt.trace.EnsureRequestID(r)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		sw.Header().Set(telemetry.RequestIDHeader, rid)
		h(sw, r)
		d := time.Since(start)
		codes.Code(sw.code).Inc()
		hist.ObserveDuration(d)
		rt.trace.Record(telemetry.Span{
			RequestID: rid, Endpoint: endpoint, Status: sw.code, Start: start, Duration: d,
		})
		rt.log.Printf("method=%s path=%s endpoint=%s status=%d dur_us=%d rid=%s",
			r.Method, r.URL.Path, endpoint, sw.code, d.Microseconds(), rid)
	})
}

// pick returns the backend owning id: the first ring point clockwise
// from the ID's hash whose backend passes ok. Returns nil if none does.
func (rt *Router) pick(id string, ok func(*Backend) bool) *Backend {
	h := hash64(id)
	n := len(rt.ring)
	start := sort.Search(n, func(i int) bool { return rt.ring[i].hash >= h }) % n
	seen := make(map[int]bool, len(rt.backends))
	for i := 0; i < n && len(seen) < len(rt.backends); i++ {
		p := rt.ring[(start+i)%n]
		if seen[p.backend] {
			continue
		}
		seen[p.backend] = true
		if b := rt.backends[p.backend]; ok(b) {
			return b
		}
	}
	return nil
}

func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	rt.checkAll()
	t := time.NewTicker(rt.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			rt.checkAll()
		case <-rt.stop:
			return
		}
	}
}

func (rt *Router) checkAll() {
	for _, b := range rt.backends {
		ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthEvery)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/healthz", nil)
		resp, err := rt.client.Do(req)
		ok := err == nil && resp.StatusCode == http.StatusOK
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
		if ok != b.healthy.Swap(ok) {
			rt.log.Printf("backend %s health %v -> %v", b.URL, !ok, ok)
		}
		if !ok {
			rt.mt.healthFail.Inc()
		}
	}
}

func (rt *Router) newID() string {
	return fmt.Sprintf("r%06x-%08x", rt.idctr.Add(1), uint32(rt.idsalt>>32)^uint32(rt.idsalt)^rand.Uint32())
}

// forward proxies one request (with a pre-buffered body) to the backend
// owning id, retrying around backends that fail at the transport level.
// A transport failure marks the backend unhealthy immediately — the
// health loop re-admits it later — and the retry re-resolves the ring,
// so the request lands on the session's new owner. Safe for batch posts
// because the backends deduplicate by batch seq.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, id string, body []byte) {
	rt.mt.proxied.Inc()
	rid := r.Header.Get(telemetry.RequestIDHeader)
	attempts := 0
	defer func() {
		if attempts > 0 {
			rt.mt.attempts.Observe(float64(attempts))
		}
	}()
	for attempt := 0; attempt <= len(rt.backends); attempt++ {
		b := rt.pick(id, (*Backend).up)
		if b == nil {
			break
		}
		url := b.URL + r.URL.Path
		if r.URL.RawQuery != "" {
			url += "?" + r.URL.RawQuery
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
		if err != nil {
			writeJSONError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		req.Header = r.Header.Clone()
		attempts++
		upStart := time.Now()
		resp, err := rt.client.Do(req)
		rt.mt.upstream.With(b.URL).ObserveDuration(time.Since(upStart))
		if err != nil {
			if r.Context().Err() != nil {
				writeJSONError(w, http.StatusBadGateway, "canceled", err.Error())
				return
			}
			b.healthy.Store(false)
			rt.mt.retries.Inc()
			rt.log.Printf("backend %s failed (%v), retrying %s %s rid=%s", b.URL, err, r.Method, r.URL.Path, rid)
			continue
		}
		copyResponse(w, resp)
		return
	}
	rt.mt.noBackend.Inc()
	writeJSONError(w, http.StatusServiceUnavailable, "no_backend", "no healthy backend available")
}

func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		if k == telemetry.RequestIDHeader {
			// Already set by instrument; the backend echoes the same ID,
			// and Add would duplicate the header.
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// writeJSONError writes the router's own error envelope, in the shape of
// serve.ErrorBody: the request ID instrument echoed onto the response
// headers is the correlation ID every tier logs.
func writeJSONError(w http.ResponseWriter, code int, errCode, msg string) {
	detail := map[string]string{"code": errCode, "message": msg}
	if rid := w.Header().Get(telemetry.RequestIDHeader); rid != "" {
		detail["request_id"] = rid
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]map[string]string{"error": detail})
}

func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBody))
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeJSONError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
		} else {
			writeJSONError(w, http.StatusBadRequest, "bad_request", err.Error())
		}
		return nil, false
	}
	return body, true
}

// handleCreate assigns the session an ID (unless the client supplied
// one) and routes the create to the ring owner, so every later request
// for the ID resolves to the same backend.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var req map[string]any
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad_request", "malformed JSON body: "+err.Error())
		return
	}
	id, _ := req["id"].(string)
	if id == "" {
		id = rt.newID()
		req["id"] = id
		var err error
		if body, err = json.Marshal(req); err != nil {
			writeJSONError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
	}
	rt.forward(w, r, id, body)
}

// handleSession routes every per-session endpoint (events, metrics,
// snapshot, restore, delete) by the path's session ID.
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	rt.forward(w, r, r.PathValue("id"), body)
}

// handleAny routes non-session API paths (sweeps, predictors,
// workloads) to any healthy backend.
func (rt *Router) handleAny(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	// A random key spreads stateless requests across the fleet.
	rt.forward(w, r, fmt.Sprintf("any-%d", rand.Uint64()), body)
}

// handleList merges the session listings of every healthy backend.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	type listResp struct {
		Count    int               `json:"count"`
		Sessions []json.RawMessage `json:"sessions"`
	}
	out := listResp{Sessions: []json.RawMessage{}}
	for _, b := range rt.backends {
		if !b.Healthy() {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b.URL+"/v1/sessions", nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			b.healthy.Store(false)
			continue
		}
		var part listResp
		err = json.NewDecoder(resp.Body).Decode(&part)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		out.Sessions = append(out.Sessions, part.Sessions...)
	}
	out.Count = len(out.Sessions)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	for _, b := range rt.backends {
		if b.Healthy() {
			healthy++
		}
	}
	if healthy == 0 {
		writeJSONError(w, http.StatusServiceUnavailable, "no_backend", "no healthy backend")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"healthy_backends\":%d}\n", healthy)
}

// handleMetrics renders the router's registry in the Prometheus text
// exposition format (per-endpoint request counters and latency
// histograms, upstream attempt histograms, backend health gauges).
func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.mt.reg.Render(w)
}

// handleDrain marks a backend draining and migrates every session it
// holds to the ring's new owners via snapshot/restore/delete. The
// backend stays available for reads during the sweep; each session is
// deleted from it only after the restore on its new owner succeeds.
func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	target := r.URL.Query().Get("backend")
	var b *Backend
	for _, cand := range rt.backends {
		if cand.URL == strings.TrimRight(target, "/") {
			b = cand
			break
		}
	}
	if b == nil {
		writeJSONError(w, http.StatusNotFound, "unknown_backend", fmt.Sprintf("backend %q is not in the fleet", target))
		return
	}
	b.draining.Store(true)
	moved, failed, err := rt.Drain(r.Context(), b)
	if err != nil {
		writeJSONError(w, http.StatusBadGateway, "drain_failed", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"backend\":%q,\"migrated\":%d,\"failed\":%d}\n", b.URL, moved, failed)
}

// Drain migrates all sessions off b (already marked draining) to their
// new ring owners. Returns migrated and failed counts.
func (rt *Router) Drain(ctx context.Context, b *Backend) (moved, failed int, err error) {
	var list struct {
		Sessions []struct {
			ID string `json:"id"`
		} `json:"sessions"`
	}
	if err := rt.getJSON(ctx, b.URL+"/v1/sessions", &list); err != nil {
		return 0, 0, fmt.Errorf("list sessions on %s: %w", b.URL, err)
	}
	for _, s := range list.Sessions {
		if err := rt.migrate(ctx, b, s.ID); err != nil {
			failed++
			rt.log.Printf("migrate %s off %s: %v", s.ID, b.URL, err)
			continue
		}
		moved++
		rt.mt.migrations.Inc()
	}
	return moved, failed, nil
}

func (rt *Router) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s: %s", url, resp.Status, raw)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// migrate moves one session: snapshot from the old backend, restore on
// the ring's new owner, then delete the original. A failure before the
// delete leaves the session where it was — migration is all-or-nothing
// per session.
func (rt *Router) migrate(ctx context.Context, from *Backend, id string) error {
	to := rt.pick(id, (*Backend).up)
	if to == nil {
		return errors.New("no healthy backend to migrate to")
	}
	if to == from {
		return nil // already owned correctly (shouldn't happen while draining)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, from.URL+"/v1/sessions/"+id+"/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	blob, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || readErr != nil {
		return fmt.Errorf("snapshot: %s: %s", resp.Status, blob)
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodPost, to.URL+"/v1/sessions/"+id+"/restore", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err = rt.client.Do(req)
	if err != nil {
		return err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("restore on %s: %s: %s", to.URL, resp.Status, raw)
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodDelete, from.URL+"/v1/sessions/"+id, nil)
	if err != nil {
		return err
	}
	resp, err = rt.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}
