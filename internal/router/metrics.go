package router

import (
	"repro/internal/buildinfo"
	"repro/internal/telemetry"
)

// attemptBuckets bound the per-request upstream attempt count: 1 is the
// no-retry common case; anything above counts failovers.
var attemptBuckets = []float64{1, 2, 3, 4, 6, 8}

// routerMetrics is the bprouter's metric set on the shared telemetry
// registry. Request accounting (bprouter_requests_total and
// bprouter_request_seconds) is registered by the router's
// telemetry.Edge; each backend's upstream handle is resolved once in
// New, keeping the request path free of vec lookups.
type routerMetrics struct {
	reg *telemetry.Registry

	upstream *telemetry.HistogramVec // bprouter_upstream_seconds{backend}
	attempts *telemetry.Histogram    // bprouter_upstream_attempts

	proxied    *telemetry.Counter
	retries    *telemetry.Counter
	noBackend  *telemetry.Counter
	migrations *telemetry.Counter
	healthFail *telemetry.Counter
}

func newRouterMetrics() *routerMetrics {
	reg := telemetry.NewRegistry()
	m := &routerMetrics{reg: reg}
	m.upstream = reg.HistogramVec("bprouter_upstream_seconds", "Latency of individual proxy attempts by backend (failed attempts included).", telemetry.LatencyBuckets, "backend")
	m.attempts = reg.Histogram("bprouter_upstream_attempts", "Upstream attempts per proxied request (1 = no retry).", attemptBuckets)
	m.proxied = reg.Counter("bprouter_proxied_total", "Requests proxied to backends.")
	m.retries = reg.Counter("bprouter_retries_total", "Proxy attempts retried on another backend after a transport failure.")
	m.noBackend = reg.Counter("bprouter_no_backend_total", "Requests failed because no healthy backend was available.")
	m.migrations = reg.Counter("bprouter_migrations_total", "Sessions migrated off draining backends.")
	m.healthFail = reg.Counter("bprouter_health_check_failures_total", "Failed backend health checks.")
	telemetry.RegisterBuildInfo(reg, buildinfo.Version(), buildinfo.Revision())
	return m
}
