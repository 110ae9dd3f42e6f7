package telemetry

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

// buildRegistry assembles a registry exercising every metric kind with
// fixed values, for the golden-stability tests.
func buildRegistry() *Registry {
	reg := NewRegistry()
	c := reg.Counter("test_events_total", "Events seen.")
	c.Add(41)
	c.Inc()
	vec := reg.CounterVec("test_requests_total", "Requests by endpoint and code.", "endpoint", "code")
	vec.With("feed", "200").Add(7)
	vec.With("feed", "404").Inc()
	vec.With("create", "200").Add(3)
	reg.Gauge("test_live", "Live sessions.", func() float64 { return 12 })
	reg.GaugeVec("test_backend_up", "Backend health.", []string{"backend"}, func(emit func([]string, float64)) {
		emit([]string{`b"two\`}, 0) // exercises label escaping
		emit([]string{"b1"}, 1)
	})
	h := reg.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.5)
	h.Observe(5)
	hv := reg.HistogramVec("test_hop_seconds", "Per-hop latency.", []float64{0.25}, "hop")
	hv.With("router").Observe(0.1)
	RegisterBuildInfo(reg, "v1.2.3", "abcdef012345")
	return reg
}

const golden = `# HELP build_info Build identity of the running binary.
# TYPE build_info gauge
build_info{version="v1.2.3",hash="abcdef012345"} 1
# HELP test_backend_up Backend health.
# TYPE test_backend_up gauge
test_backend_up{backend="b\"two\\"} 0
test_backend_up{backend="b1"} 1
# HELP test_events_total Events seen.
# TYPE test_events_total counter
test_events_total 42
# HELP test_hop_seconds Per-hop latency.
# TYPE test_hop_seconds histogram
test_hop_seconds_bucket{hop="router",le="0.25"} 1
test_hop_seconds_bucket{hop="router",le="+Inf"} 1
test_hop_seconds_sum{hop="router"} 0.1
test_hop_seconds_count{hop="router"} 1
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.01"} 1
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 5.505
test_latency_seconds_count 3
# HELP test_live Live sessions.
# TYPE test_live gauge
test_live 12
# HELP test_requests_total Requests by endpoint and code.
# TYPE test_requests_total counter
test_requests_total{endpoint="create",code="200"} 3
test_requests_total{endpoint="feed",code="200"} 7
test_requests_total{endpoint="feed",code="404"} 1
`

// TestRenderGolden pins the exact rendering: sorted families, sorted
// series, escaped labels, histogram component ordering.
func TestRenderGolden(t *testing.T) {
	reg := buildRegistry()
	var buf bytes.Buffer
	reg.Render(&buf)
	if got := buf.String(); got != golden {
		t.Errorf("render mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

// TestRenderStable renders twice and requires byte-identical output.
func TestRenderStable(t *testing.T) {
	reg := buildRegistry()
	var a, b bytes.Buffer
	reg.Render(&a)
	reg.Render(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of the same registry differ")
	}
}

// TestRenderLints feeds the golden registry's own output through the
// strict parser: renderer and linter must agree on the format.
func TestRenderLints(t *testing.T) {
	reg := buildRegistry()
	var buf bytes.Buffer
	reg.Render(&buf)
	fams, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("own render fails lint: %v", err)
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["test_backend_up"]; f.Sample("test_backend_up", map[string]string{"backend": `b"two\`}) == nil {
		t.Errorf("escaped label did not round-trip: %+v", f.Samples)
	}
	if f := byName["test_events_total"]; len(f.Samples) != 1 || f.Samples[0].Value != 42 {
		t.Errorf("counter did not round-trip: %+v", f.Samples)
	}
}

// TestHistogramScrapeConsistency hammers a histogram from writers while
// scraping, requiring every scrape's _count to equal its +Inf bucket
// (the snapshot-first contract; a naive independent load of count and
// buckets fails this under the race detector's schedule perturbation).
func TestHistogramScrapeConsistency(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h_seconds", "h", []float64{0.1, 1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64(i%3) * 0.4)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		var buf bytes.Buffer
		reg.Render(&buf)
		fams, err := ParseText(&buf)
		if err != nil {
			t.Fatalf("scrape %d fails lint (count/bucket disagreement?): %v", i, err)
		}
		for _, f := range fams {
			cnt := f.Sample("h_seconds_count", nil)
			inf := f.Sample("h_seconds_bucket", map[string]string{"le": "+Inf"})
			if cnt == nil || inf == nil {
				t.Fatal("missing histogram components")
			}
			if cnt.Value != inf.Value {
				t.Fatalf("scrape %d: count %g != +Inf bucket %g", i, cnt.Value, inf.Value)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestHistogramSum(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "h", []float64{1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	_, count, sum := h.snapshot()
	if count != 8000 || math.Abs(sum-4000) > 1e-6 {
		t.Errorf("count=%d sum=%g, want 8000/4000", count, sum)
	}
}

// TestCodeCounterFastPath checks handle identity and the zero-alloc
// guarantee of the pre-resolved request-count path.
func TestCodeCounterFastPath(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("reqs_total", "r", "endpoint", "code")
	cc := NewCodeCounter(vec, "feed")
	if cc.Code(200) != cc.Code(200) {
		t.Fatal("Code(200) not cached")
	}
	if cc.Code(200) == cc.Code(500) {
		t.Fatal("distinct codes share a counter")
	}
	if cc.Code(200) != vec.With("feed", "200") {
		t.Fatal("fast path and vec lookup disagree")
	}
	cc.Code(200) // warm
	allocs := testing.AllocsPerRun(1000, func() {
		cc.Code(200).Inc()
	})
	if allocs != 0 {
		t.Errorf("CodeCounter steady state allocates %.1f/op, want 0", allocs)
	}
	// Out-of-range codes fall back to the locked path but still count.
	cc.Code(42).Inc()
	if vec.With("feed", "42").Value() != 1 {
		t.Error("out-of-range code lost")
	}
}

func TestObserveZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h_seconds", "h", []float64{0.001, 0.01, 0.1, 1})
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(0.02)
	})
	if allocs != 0 {
		t.Errorf("Histogram.Observe allocates %.1f/op, want 0", allocs)
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	reg := NewRegistry()
	reg.Counter("dup", "d")
	mustPanic("duplicate name", func() { reg.Counter("dup", "d") })
	mustPanic("invalid name", func() { reg.Counter("0bad", "d") })
	mustPanic("invalid label", func() { reg.CounterVec("ok_total", "d", "0bad") })
	mustPanic("bad buckets", func() { reg.Histogram("h", "d", []float64{1, 1}) })
	mustPanic("no buckets", func() { reg.Histogram("h2", "d", nil) })
	vec := reg.CounterVec("v_total", "d", "a")
	mustPanic("label arity", func() { vec.With("x", "y") })
}

func TestBucketQuantile(t *testing.T) {
	les := []float64{0.1, 0.2, 0.4, math.Inf(1)}
	cums := []uint64{10, 30, 60, 60}
	// Median rank 30 lands exactly at the 0.2 bucket boundary.
	if got := BucketQuantile(les, cums, 0.5); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("p50 = %g, want 0.2", got)
	}
	// Rank 54 sits 24/30 into the (0.2, 0.4] bucket.
	if got, want := BucketQuantile(les, cums, 0.9), 0.2+0.2*24/30; math.Abs(got-want) > 1e-9 {
		t.Errorf("p90 = %g, want %g", got, want)
	}
	// A quantile in +Inf clamps to the last finite bound.
	cums2 := []uint64{10, 30, 60, 100}
	if got := BucketQuantile(les, cums2, 0.99); got != 0.4 {
		t.Errorf("p99 in +Inf = %g, want 0.4", got)
	}
	if got := BucketQuantile(les, []uint64{0, 0, 0, 0}, 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
	if got := BucketQuantile(nil, nil, 0.5); got != 0 {
		t.Errorf("nil quantile = %g, want 0", got)
	}
}
