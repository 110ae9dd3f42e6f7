// Package telemetry is the fleet's shared observability layer and HTTP
// edge: a dependency-free metrics registry (counters, scrape-time
// gauges, fixed-bucket histograms, and labeled counter/histogram vecs
// with an allocation-free hot path) rendered deterministically in the
// Prometheus text exposition format; a strict parser for that format
// (see text.go), the lint every tier's scrape must pass; and the
// request policy both daemons wrap their routes in (see http.go): one
// Edge per tier mints and propagates X-Request-Id, caps request bodies,
// counts requests by endpoint and status code on one latency grid, and
// writes the slow_request and access log lines.
//
// Both bpservd and bprouter build their /metrics pages on one Registry
// each, so the exposition rules — HELP/TYPE before series, sorted
// families, sorted series, escaped labels, monotone histogram buckets —
// are enforced in exactly one place.
//
// Hot-path discipline: Counter.Inc/Add and Histogram.Observe are pure
// atomics. Vec lookups (CounterVec.With, HistogramVec.With) take a
// mutex and may allocate, so callers resolve handles once at setup; for
// the one genuinely dynamic label — the HTTP status code — CodeCounter
// caches resolved handles behind an atomic pointer table so the
// steady-state request path performs no locking and no allocation.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is not
// usable; obtain counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram. Observations are atomic; the
// scrape path snapshots bucket counts first and derives the sample
// count from that snapshot, so a scrape can never show a count that
// disagrees with the cumulative bucket sum, even mid-observation.
type Histogram struct {
	buckets []float64       // upper bounds, ascending; +Inf implicit
	counts  []atomic.Uint64 // one per bucket, +Inf at the end
	sumBits atomic.Uint64   // float64 bits of the running sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		nxt := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nxt) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// snapshot returns per-bucket counts, the total count derived from
// them, and the sum. Buckets are read first: the derived count is
// always consistent with the bucket cumsum (the sum may trail by
// in-flight observations, which Prometheus semantics tolerate).
func (h *Histogram) snapshot() (counts []uint64, count uint64, sum float64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		count += counts[i]
	}
	return counts, count, math.Float64frombits(h.sumBits.Load())
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct {
	fam *family
}

// With returns the counter for the given label values, creating it on
// first use. It takes the family mutex: resolve handles at setup, not
// per event.
func (v *CounterVec) With(values ...string) *Counter {
	s := v.fam.series(values)
	if s.counter == nil {
		panic("telemetry: internal: counter family holds non-counter")
	}
	return s.counter
}

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct {
	fam *family
}

// With returns the histogram for the given label values, creating it on
// first use. Same locking caveat as CounterVec.With.
func (v *HistogramVec) With(values ...string) *Histogram {
	s := v.fam.series(values)
	if s.hist == nil {
		panic("telemetry: internal: histogram family holds non-histogram")
	}
	return s.hist
}

// CodeCounter is the allocation-free fast path for a CounterVec whose
// final label is an HTTP status code: the leading label values (for
// example the endpoint) are fixed at construction, and the counter for
// each status code is resolved once and cached behind an atomic
// pointer, so the steady-state path is one atomic load plus one atomic
// add.
type CodeCounter struct {
	vec  *CounterVec
	base []string
	slot [500]atomic.Pointer[Counter] // status codes 100..599
}

// NewCodeCounter pre-binds the leading label values of vec; the status
// code supplied to Code becomes the final label value.
func NewCodeCounter(vec *CounterVec, base ...string) *CodeCounter {
	return &CodeCounter{vec: vec, base: append([]string(nil), base...)}
}

// Code returns the counter for one status code. Codes outside 100..599
// fall back to the locked vec lookup.
func (cc *CodeCounter) Code(code int) *Counter {
	in := code >= 100 && code < 600
	if in {
		if c := cc.slot[code-100].Load(); c != nil {
			return c
		}
	}
	vals := make([]string, 0, len(cc.base)+1)
	vals = append(vals, cc.base...)
	vals = append(vals, strconv.Itoa(code))
	c := cc.vec.With(vals...)
	if in {
		cc.slot[code-100].Store(c)
	}
	return c
}

// series is one label-value combination inside a family.
type series struct {
	values  []string
	counter *Counter
	hist    *Histogram
}

// family is one metric name: its metadata plus every series under it.
type family struct {
	name, help, typ string
	labels          []string
	buckets         []float64 // histogram families only

	mu     sync.Mutex
	byKey  map[string]*series
	sorted []*series // maintained in sorted key order

	// collect, when set, produces the family's points at scrape time
	// (gauge families); such families hold no stored series.
	collect func(emit func(values []string, v float64))
}

// series returns (creating if needed) the series for the label values.
func (f *family) series(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{values: append([]string(nil), values...)}
	switch f.typ {
	case "counter":
		s.counter = new(Counter)
	case "histogram":
		s.hist = &Histogram{buckets: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
	default:
		panic("telemetry: stored series on a " + f.typ + " family")
	}
	f.byKey[key] = s
	i := sort.Search(len(f.sorted), func(i int) bool {
		return strings.Join(f.sorted[i].values, "\xff") >= key
	})
	f.sorted = append(f.sorted, nil)
	copy(f.sorted[i+1:], f.sorted[i:])
	f.sorted[i] = s
	return s
}

// Registry owns a set of metric families and renders them as one
// Prometheus text page. Registration panics on invalid or duplicate
// names — those are programming errors, caught by the first scrape
// test, not conditions to handle at runtime.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func (r *Registry) add(f *family) *family {
	if !validName(f.name) {
		panic("telemetry: invalid metric name " + strconv.Quote(f.name))
	}
	for _, l := range f.labels {
		if !validName(l) || strings.Contains(l, ":") {
			panic("telemetry: invalid label name " + strconv.Quote(l) + " on " + f.name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[f.name]; ok {
		panic("telemetry: duplicate metric " + f.name)
	}
	r.families[f.name] = f
	return f
}

// Counter registers a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.add(&family{name: name, help: help, typ: "counter", byKey: map[string]*series{}})
	return (&CounterVec{fam: f}).With()
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.add(&family{name: name, help: help, typ: "counter", labels: labels, byKey: map[string]*series{}})
	return &CounterVec{fam: f}
}

// Histogram registers a label-less histogram with the given upper
// bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.add(&family{name: name, help: help, typ: "histogram", buckets: checkBuckets(name, buckets), byKey: map[string]*series{}})
	return (&HistogramVec{fam: f}).With()
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := r.add(&family{name: name, help: help, typ: "histogram", buckets: checkBuckets(name, buckets), labels: labels, byKey: map[string]*series{}})
	return &HistogramVec{fam: f}
}

func checkBuckets(name string, buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic("telemetry: histogram " + name + " needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("telemetry: histogram " + name + " buckets not ascending")
		}
	}
	return append([]float64(nil), buckets...)
}

// Gauge registers a gauge read by callback at scrape time.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.GaugeVec(name, help, nil, func(emit func([]string, float64)) { emit(nil, fn()) })
}

// GaugeVec registers a labeled gauge family whose points are produced
// by the collect callback at scrape time. The callback may emit any
// number of points (including none); emitted label-value sets must be
// distinct within one scrape.
func (r *Registry) GaugeVec(name, help string, labels []string, collect func(emit func(values []string, v float64))) {
	r.add(&family{name: name, help: help, typ: "gauge", labels: labels, collect: collect})
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelString renders {a="x",b="y"} (empty string for no labels); extra
// appends one more pair (the histogram le label).
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteString(`"`)
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// Render writes every family in the Prometheus text exposition format:
// families sorted by name, series sorted by label values, HELP and TYPE
// lines before any series. Output for a fixed set of values is
// byte-stable, which the golden tests pin.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make(map[string]*family, len(names))
	for n, f := range r.families {
		fams[n] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	for _, n := range names {
		f := fams[n]
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ)
		if f.collect != nil {
			f.renderCollect(w)
			continue
		}
		f.mu.Lock()
		ss := append([]*series(nil), f.sorted...)
		f.mu.Unlock()
		for _, s := range ss {
			switch f.typ {
			case "counter":
				fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, s.values, "", ""), s.counter.Value())
			case "histogram":
				counts, count, sum := s.hist.snapshot()
				cum := uint64(0)
				for i, ub := range f.buckets {
					cum += counts[i]
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.values, "le", formatFloat(ub)), cum)
				}
				cum += counts[len(f.buckets)]
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.values, "le", "+Inf"), cum)
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, s.values, "", ""), formatFloat(sum))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, s.values, "", ""), count)
			}
		}
	}
}

// renderCollect gathers a collect family's points, sorts them, and
// writes them. A duplicate label set within one scrape panics: the
// collector broke the exposition contract.
func (f *family) renderCollect(w io.Writer) {
	type point struct {
		key    string
		values []string
		v      float64
	}
	var pts []point
	f.collect(func(values []string, v float64) {
		if len(values) != len(f.labels) {
			panic(fmt.Sprintf("telemetry: %s collector emitted %d label values, want %d", f.name, len(values), len(f.labels)))
		}
		pts = append(pts, point{key: strings.Join(values, "\xff"), values: append([]string(nil), values...), v: v})
	})
	sort.Slice(pts, func(i, j int) bool { return pts[i].key < pts[j].key })
	for i, p := range pts {
		if i > 0 && p.key == pts[i-1].key {
			panic("telemetry: " + f.name + " collector emitted duplicate label set")
		}
		fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, p.values, "", ""), formatFloat(p.v))
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// RegisterBuildInfo adds the conventional build_info gauge
// (build_info{version,hash} 1), so any scrape identifies the running
// binary's build.
func RegisterBuildInfo(r *Registry, version, hash string) {
	r.GaugeVec("build_info", "Build identity of the running binary.", []string{"version", "hash"},
		func(emit func([]string, float64)) { emit([]string{version, hash}, 1) })
}
