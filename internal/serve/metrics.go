package serve

import (
	"repro/internal/buildinfo"
	"repro/internal/telemetry"
)

// The observability layer: request counters, per-endpoint latency
// histograms, and gauge callbacks, rendered in the Prometheus text
// exposition format on /metrics. The registry, tracer, and exposition
// renderer live in internal/telemetry and are shared with the bprouter;
// this file only declares bpservd's metric families.

// latencyBuckets are the histogram upper bounds in seconds; an implicit
// +Inf bucket follows.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// serverMetrics is bpservd's metric set on the shared telemetry
// registry. Request accounting is labeled by endpoint and status code;
// the per-endpoint handles are resolved once at route-registration time
// (see Server.instrument), so the per-request path is two atomic adds
// and a histogram observation — no locks, no allocation.
type serverMetrics struct {
	reg *telemetry.Registry

	requests *telemetry.CounterVec   // bpservd_requests_total{endpoint,code}
	latency  *telemetry.HistogramVec // bpservd_request_seconds{endpoint}

	events          *telemetry.Counter
	batches         *telemetry.Counter
	backpressure    *telemetry.Counter
	rateLimited     *telemetry.Counter
	sessCreated     *telemetry.Counter
	sessClosed      *telemetry.Counter
	sessEvicted     *telemetry.Counter
	sessExpired     *telemetry.Counter
	sessSpilled     *telemetry.Counter
	warmRestores    *telemetry.Counter
	restoreFailures *telemetry.Counter
	spillErrors     *telemetry.Counter
	sweeps          *telemetry.Counter
	sweepEvals      *telemetry.Counter
	opsExecuted     *telemetry.Counter
}

func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{reg: reg}
	m.requests = reg.CounterVec("bpservd_requests_total", "HTTP requests by endpoint and status code.", "endpoint", "code")
	m.latency = reg.HistogramVec("bpservd_request_seconds", "Request latency by endpoint.", latencyBuckets, "endpoint")
	m.events = reg.Counter("bpservd_events_total", "Branch/predicate events fed into sessions.")
	m.batches = reg.Counter("bpservd_batches_total", "Event batches accepted.")
	m.backpressure = reg.Counter("bpservd_backpressure_total", "Batches rejected with 429 because a shard queue was full.")
	m.rateLimited = reg.Counter("bpservd_rate_limited_total", "Requests rejected by the rate limiter.")
	m.sessCreated = reg.Counter("bpservd_sessions_created_total", "Sessions created.")
	m.sessClosed = reg.Counter("bpservd_sessions_closed_total", "Sessions closed by clients.")
	m.sessEvicted = reg.Counter("bpservd_sessions_evicted_total", "Sessions evicted for capacity (LRU).")
	m.sessExpired = reg.Counter("bpservd_sessions_expired_total", "Sessions expired by idle TTL.")
	m.sessSpilled = reg.Counter("bpservd_sessions_spilled_total", "Session snapshots written to the spill directory (eviction, expiry, or shutdown).")
	m.warmRestores = reg.Counter("bpservd_sessions_warm_restored_total", "Sessions restored from the spill directory on touch.")
	m.restoreFailures = reg.Counter("bpservd_snapshot_restore_failures_total", "Snapshots that failed to decode (spill files or restore requests).")
	m.spillErrors = reg.Counter("bpservd_spill_errors_total", "Failed attempts to write a session snapshot to the spill directory.")
	m.sweeps = reg.Counter("bpservd_sweeps_total", "Sweep requests executed.")
	m.sweepEvals = reg.Counter("bpservd_sweep_evals_total", "Individual spec evaluations across sweeps.")
	m.opsExecuted = reg.Counter("bpservd_sched_passes_total", "Shard ops executed.")
	telemetry.RegisterBuildInfo(reg, buildinfo.Version(), buildinfo.Revision())
	return m
}
