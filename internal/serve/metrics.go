package serve

import (
	"repro/internal/buildinfo"
	"repro/internal/telemetry"
)

// serverMetrics declares bpservd's metric families on its registry,
// rendered on /metrics; the registry, the renderer and the request
// accounting (bpservd_requests_total, bpservd_request_seconds, which the
// server's telemetry.Edge registers) live in internal/telemetry.
type serverMetrics struct {
	reg *telemetry.Registry

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
