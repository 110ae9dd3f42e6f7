// Package serve exposes the simulation engine as a long-running HTTP
// service: prediction-as-a-service on top of the predictor registry
// (internal/sim), the incremental evaluator (internal/core), and the
// trace wire format (internal/trace).
//
// The service has three request shapes:
//
//   - Sessions: a client creates a session bound to any registry spec and
//     mechanism configuration, streams branch/predicate events to it in
//     batches (JSON or binary P64T), and reads incremental metrics — the
//     online evaluation loop of Lin & Tarsa's "helper predictors against
//     live branch streams". Sessions are sharded across a fixed worker
//     set with single-writer ownership (no per-event locking), bounded in
//     count and approximate memory, LRU-evicted under capacity pressure,
//     and expired by idle TTL.
//   - Sweeps: a grid of specs evaluated against a named workload or an
//     uploaded trace, fanned out over sim.Sweep with per-request timeout
//     and cancellation on client disconnect.
//   - Observability: /metrics (Prometheus text format, no external
//     dependencies), /debug/pprof, structured request logs, and a
//     consistent JSON error envelope.
//
// Robustness: request-size and rate limits, 429 backpressure when a shard
// batch queue fills, and graceful shutdown that drains queued session
// work (shut the http.Server down first so no handler is mid-enqueue,
// then Close the serve.Server).
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Config parameterises the server. The zero value gets sensible
// defaults from New.
type Config struct {
	// Shards is the number of session-owning workers; 0 means GOMAXPROCS.
	Shards int
	// MaxSessions bounds resident sessions across all shards.
	MaxSessions int
	// MaxSessionBytes bounds the approximate resident session memory.
	MaxSessionBytes int64
	// SessionTTL expires sessions idle longer than this; 0 disables.
	SessionTTL time.Duration
	// MinEvictIdle is the minimum idle time before a session may be
	// LRU-evicted for capacity; live sessions are never evicted.
	MinEvictIdle time.Duration
	// QueueDepth is the per-shard op queue; a full queue rejects batches
	// with 429.
	QueueDepth int
	// SpillDir, when set, turns eviction into demotion: sessions evicted
	// for capacity, expired by TTL, or live at shutdown are snapshotted
	// (internal/snap) into this directory and warm-restored on their next
	// touch. Backends sharing one spill directory hand sessions off to
	// each other across restarts and failovers. Empty disables spilling.
	SpillDir string

	// MaxBody caps request body size in bytes.
	MaxBody int64
	// RatePerSec enables a global token-bucket rate limit on /v1
	// endpoints; 0 disables.
	RatePerSec float64
	// RateBurst is the bucket size when rate limiting is on.
	RateBurst int

	// SweepTimeout caps a sweep request that sets no timeout_ms.
	SweepTimeout time.Duration
	// SweepWorkers is the sweep fan-out; 0 means GOMAXPROCS.
	SweepWorkers int
	// MaxSweepSpecs caps the grid size of one sweep request.
	MaxSweepSpecs int
	// MaxSweepLimit caps the emulation step limit of a named-workload sweep.
	MaxSweepLimit uint64

	// SlowRequest is the latency threshold above which a request gets a
	// structured slow_request log line; 0 disables.
	SlowRequest time.Duration

	// Logger receives one structured line per request; nil discards.
	Logger *log.Logger
	// Now is the clock (tests may fake it).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxSessionBytes <= 0 {
		c.MaxSessionBytes = 256 << 20
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 10 * time.Minute
	}
	if c.MinEvictIdle == 0 {
		c.MinEvictIdle = 250 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 64 << 20
	}
	if c.RateBurst <= 0 {
		c.RateBurst = 128
	}
	if c.SweepTimeout <= 0 {
		c.SweepTimeout = 30 * time.Second
	}
	if c.MaxSweepSpecs <= 0 {
		c.MaxSweepSpecs = 64
	}
	if c.MaxSweepLimit == 0 {
		c.MaxSweepLimit = 10_000_000
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Server is the serving subsystem: session manager, sweep runner, and
// observability, behind one http.Handler.
type Server struct {
	cfg    Config
	tel    *serverMetrics
	edge   *telemetry.Edge
	mgr    *sessionManager
	mux    *http.ServeMux
	bucket *tokenBucket

	// sweepHold, when set, runs with each sweep's deadline context just
	// before the fan-out starts. Tests set it to wait for the context,
	// which makes the deadline path deterministic however fast the sweep.
	sweepHold func(ctx context.Context)

	// scrapeMu serializes /metrics renders. h2p is the render's one
	// hardest-branch ranking, which both bpservd_h2p_* families emit.
	scrapeMu sync.Mutex
	h2p      []core.BranchStats
}

// h2pTopK is how many hardest branches the aggregate bpservd_h2p_*
// metric families export per scrape.
const h2pTopK = 10

// New builds a Server from the config (zero value OK). It fails only
// when a configured spill directory cannot be created or scanned.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	tel := newServerMetrics()
	var spill *spillStore
	if cfg.SpillDir != "" {
		var err error
		if spill, err = newSpillStore(cfg.SpillDir); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:  cfg,
		tel:  tel,
		edge: telemetry.NewEdge("bpservd", tel.reg, cfg.Logger, cfg.SlowRequest, cfg.MaxBody, cfg.Now),
		mgr:  newSessionManager(cfg, tel, spill),
		mux:  http.NewServeMux(),
	}
	if cfg.RatePerSec > 0 {
		s.bucket = newTokenBucket(cfg.RatePerSec, float64(cfg.RateBurst), cfg.Now)
	}
	tel.reg.Gauge("bpservd_sessions_live", "Resident sessions.", func() float64 { return float64(s.mgr.Live()) })
	tel.reg.Gauge("bpservd_session_bytes", "Approximate resident session memory in bytes.", func() float64 { return float64(s.mgr.Bytes()) })
	tel.reg.Gauge("bpservd_queue_depth", "Queued, unprocessed session operations across shards.", func() float64 { return float64(s.mgr.QueueDepth()) })
	if spill != nil {
		// Counted from the directory at scrape time: with a shared spill
		// dir, another backend's restores would drift any local deltas.
		tel.reg.Gauge("bpservd_spill_bytes", "Bytes of spilled session snapshots on disk.", func() float64 {
			_, b := spill.stats()
			return float64(b)
		})
		tel.reg.Gauge("bpservd_spill_files", "Spilled session snapshots on disk.", func() float64 {
			f, _ := spill.stats()
			return float64(f)
		})
	}
	// The H2P families rank the hardest branches across every resident
	// session; both read the one ranking handleMetricsPage sweeps per
	// render, so they always name the same PCs.
	tel.reg.GaugeVec("bpservd_h2p_events",
		"Executions of the hardest-to-predict branches across resident sessions (top ranked by mispredictions).",
		[]string{"pc"}, func(emit func([]string, float64)) {
			for _, bs := range s.h2p {
				emit([]string{fmt.Sprintf("0x%x", bs.PC)}, float64(bs.Count))
			}
		})
	tel.reg.GaugeVec("bpservd_h2p_mispredicts",
		"Mispredictions of the hardest-to-predict branches across resident sessions (top ranked by mispredictions).",
		[]string{"pc"}, func(emit func([]string, float64)) {
			for _, bs := range s.h2p {
				emit([]string{fmt.Sprintf("0x%x", bs.PC)}, float64(bs.Mispredicts))
			}
		})

	s.mux.Handle("POST /v1/sessions", s.api("create_session", s.handleCreateSession))
	s.mux.Handle("GET /v1/sessions", s.api("list_sessions", s.handleListSessions))
	s.mux.Handle("POST /v1/sessions/{id}/events", s.api("post_events", s.handlePostEvents))
	s.mux.Handle("GET /v1/sessions/{id}", s.api("get_session", s.handleGetSession))
	s.mux.Handle("GET /v1/sessions/{id}/stats", s.api("get_stats", s.handleStats))
	s.mux.Handle("GET /v1/sessions/{id}/snapshot", s.api("get_snapshot", s.handleGetSnapshot))
	s.mux.Handle("POST /v1/sessions/{id}/restore", s.api("restore_session", s.handleRestoreSession))
	s.mux.Handle("DELETE /v1/sessions/{id}", s.api("delete_session", s.handleDeleteSession))
	s.mux.Handle("POST /v1/sweep", s.api("sweep", s.handleSweep))
	s.mux.Handle("GET /v1/predictors", s.api("predictors", s.handlePredictors))
	s.mux.Handle("GET /v1/workloads", s.api("workloads", s.handleWorkloads))
	s.mux.Handle("GET /healthz", s.edge.Wrap("healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", s.edge.Wrap("metrics", s.handleMetricsPage))
	telemetry.MountPprof(s.mux)
	return s, nil
}

// MustNew is New for configurations known valid (tests, in-process
// benchmark servers); it panics on error.
func MustNew(cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the session shards and stops their workers. Call it after
// http.Server.Shutdown has returned, so no handler is mid-enqueue; queued
// batches finish evaluating before Close returns. It reports the number
// of sessions that were still live.
func (s *Server) Close() int64 { return s.mgr.Close() }

// api wraps an API handler in the request policy plus the rate limit:
// a request over the limit answers 429, counted under its endpoint.
func (s *Server) api(endpoint string, h http.HandlerFunc) http.Handler {
	return s.edge.Wrap(endpoint, func(w http.ResponseWriter, r *http.Request) {
		if s.bucket != nil && !s.bucket.allow() {
			s.tel.rateLimited.Inc()
			WriteError(w, http.StatusTooManyRequests, "rate_limited", "request rate limit exceeded")
			return
		}
		h(w, r)
	})
}

// tokenBucket is a minimal global rate limiter (stdlib only).
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newTokenBucket(rate, burst float64, now func() time.Time) *tokenBucket {
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: now(), now: now}
}

func (b *tokenBucket) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// httpStatus maps a manager/handler error to its status code and
// machine-readable error code.
func httpStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, ErrExists):
		return http.StatusConflict, "exists"
	case errors.Is(err, ErrSeqGap):
		return http.StatusConflict, "seq_gap"
	case errors.Is(err, ErrBadID):
		return http.StatusBadRequest, "bad_id"
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, ErrFull):
		return http.StatusServiceUnavailable, "capacity"
	case errors.Is(err, ErrClosing):
		return http.StatusServiceUnavailable, "shutting_down"
	default:
		return http.StatusInternalServerError, "internal"
	}
}
