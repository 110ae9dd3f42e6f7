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
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Backend is one bpservd instance behind the router.
type Backend struct {
	// URL is the backend's base URL, e.g. "http://127.0.0.1:8080".
	URL string

	api      *serve.Client        // health checks, listings and migration
	upstream *telemetry.Histogram // bprouter_upstream_seconds{backend=URL}

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
	ids      *telemetry.IDs // session IDs: r%06x-%08x

	mt   *routerMetrics
	edge *telemetry.Edge

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
		ids:    telemetry.NewIDs("r"),
		mt:     newRouterMetrics(),
		stop:   make(chan struct{}),
	}
	rt.edge = telemetry.NewEdge("bprouter", rt.mt.reg, cfg.Logger, cfg.SlowRequest, cfg.MaxBody, time.Now)
	for i, u := range cfg.Backends {
		b := &Backend{URL: strings.TrimRight(u, "/")}
		b.api = serve.NewClient(b.URL, rt.client)
		b.upstream = rt.mt.upstream.With(b.URL)
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

	rt.mux.Handle("POST /v1/sessions", rt.edge.Wrap("create_session", rt.handleCreate))
	rt.mux.Handle("GET /v1/sessions", rt.edge.Wrap("list_sessions", rt.handleList))
	rt.mux.Handle("/v1/sessions/{id}", rt.edge.Wrap("session", rt.handleProxy))
	rt.mux.Handle("/v1/sessions/{id}/{rest...}", rt.edge.Wrap("session", rt.handleProxy))
	rt.mux.Handle("/v1/", rt.edge.Wrap("proxy", rt.handleProxy)) // sweeps, predictors, workloads
	rt.mux.Handle("GET /healthz", rt.edge.Wrap("healthz", rt.handleHealthz))
	rt.mux.Handle("GET /metrics", rt.edge.Wrap("metrics", rt.handleMetrics))
	rt.mux.Handle("POST /admin/drain", rt.edge.Wrap("drain", rt.handleDrain))
	telemetry.MountPprof(rt.mux)

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
		ok := b.api.Health(ctx) == nil
		cancel()
		if ok != b.healthy.Swap(ok) {
			rt.log.Printf("backend %s health %v -> %v", b.URL, !ok, ok)
		}
		if !ok {
			rt.mt.healthFail.Inc()
		}
	}
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
			serve.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		// The request middleware set the request ID on r.Header, so every
		// attempt carries the same ID to whichever backend it lands on.
		req.Header = r.Header.Clone()
		attempts++
		upStart := time.Now()
		resp, err := rt.client.Do(req)
		b.upstream.ObserveDuration(time.Since(upStart))
		if err != nil {
			if r.Context().Err() != nil {
				serve.WriteError(w, http.StatusBadGateway, "canceled", err.Error())
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
	serve.WriteError(w, http.StatusServiceUnavailable, "no_backend", "no healthy backend available")
}

func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		if k == telemetry.RequestIDHeader {
			// Already set by the request middleware; the backend echoes
			// the same ID, and Add would duplicate the header.
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// readBody buffers the request body, which the request middleware caps
// at MaxBody; when it cannot, it answers 413 or 400 itself.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		serve.WriteBodyError(w, err, "bad_request", err.Error())
		return nil, false
	}
	return body, true
}

// handleCreate assigns the session an ID (unless the client supplied
// one) and routes the create to the ring owner, so every later request
// for the ID resolves to the same backend.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req map[string]any
	if err := json.Unmarshal(body, &req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "bad_request", "malformed JSON body: "+err.Error())
		return
	}
	id, _ := req["id"].(string)
	if id == "" {
		id = rt.ids.Next()
		req["id"] = id
		var err error
		if body, err = json.Marshal(req); err != nil {
			serve.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
	}
	rt.forward(w, r, id, body)
}

// handleProxy forwards a request with its buffered body: per-session
// endpoints (events, metrics, snapshot, restore, delete) to the ring
// owner of the path's session ID, anything else (sweeps, predictors,
// workloads) to the owner of a random key, which spreads stateless
// requests across the fleet.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	key := r.PathValue("id")
	if key == "" {
		key = fmt.Sprintf("any-%d", rand.Uint64())
	}
	rt.forward(w, r, key, body)
}

// handleList merges the session listings of every healthy backend. A
// backend that fails at the transport level is marked unhealthy; one
// that refuses is skipped.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	out := serve.SessionList{Sessions: []serve.SessionJSON{}}
	for _, b := range rt.backends {
		if !b.Healthy() {
			continue
		}
		part, err := b.api.List(r.Context())
		var ae *serve.APIError
		if err != nil && !errors.As(err, &ae) {
			b.healthy.Store(false)
		}
		out.Sessions = append(out.Sessions, part...)
	}
	out.Count = len(out.Sessions)
	serve.WriteJSON(w, http.StatusOK, out)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	for _, b := range rt.backends {
		if b.Healthy() {
			healthy++
		}
	}
	if healthy == 0 {
		serve.WriteError(w, http.StatusServiceUnavailable, "no_backend", "no healthy backend")
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
		serve.WriteError(w, http.StatusNotFound, "unknown_backend", fmt.Sprintf("backend %q is not in the fleet", target))
		return
	}
	b.draining.Store(true)
	moved, failed, err := rt.Drain(r.Context(), b)
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, "drain_failed", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"backend\":%q,\"migrated\":%d,\"failed\":%d}\n", b.URL, moved, failed)
}

// Drain migrates all sessions off b (already marked draining) to their
// new ring owners. Returns migrated and failed counts; each failure is
// logged.
func (rt *Router) Drain(ctx context.Context, b *Backend) (moved, failed int, err error) {
	sessions, err := b.api.List(ctx)
	if err != nil {
		return 0, 0, fmt.Errorf("list sessions on %s: %w", b.URL, err)
	}
	for _, s := range sessions {
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

// migrate moves one session: snapshot from the old backend, restore on
// the ring's new owner, then delete the original. A failure before the
// delete leaves the session where it was — migration is all-or-nothing
// per session. A failed delete leaves it resident on both backends (the
// ring sends its traffic to the new owner), and is reported as a
// failure.
func (rt *Router) migrate(ctx context.Context, from *Backend, id string) error {
	to := rt.pick(id, (*Backend).up)
	if to == nil {
		return errors.New("no healthy backend to migrate to")
	}
	if to == from {
		return nil // already owned correctly (shouldn't happen while draining)
	}
	blob, err := from.api.Snapshot(ctx, id)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if _, err := to.api.Restore(ctx, id, blob); err != nil {
		return fmt.Errorf("restore on %s: %w", to.URL, err)
	}
	if _, err := from.api.Delete(ctx, id); err != nil {
		return fmt.Errorf("delete (session now on both %s and %s): %w", from.URL, to.URL, err)
	}
	return nil
}
