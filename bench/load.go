package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/snap"
)

// maxAttempts bounds how often a client repeats an op that failed (a
// 429, a non-2xx reply or a transport error) before the run gives up.
// Batches carry ?seq=, so repeating a post never applies it twice.
const maxAttempts = 3

const (
	ctypeJSON   = "application/json"
	ctypeBinary = "application/octet-stream"
)

// loadClient is one closed-loop client: runOp issues its next request
// and returns once the reply is in, reporting how many events the
// request posted (0 for a control request).
type loadClient interface {
	runOp(ctx context.Context, parent *span) (posted int, err error)
}

// phaseResult is what a timed phase measured.
type phaseResult struct {
	ops       []op // the ops that set latency and throughput
	attempted int
	failed    int
}

func (p *phaseResult) add(q phaseResult) {
	p.ops = append(p.ops, q.ops...)
	p.attempted += q.attempted
	p.failed += q.failed
}

// runClients runs every client's closed loop for d, each on its own
// goroutine under a child span of parent: a client sends its next
// request only after the previous one returned. Requests that posted
// events are the phase's ops.
func runClients(ctx context.Context, clients []loadClient, d time.Duration, parent *span) (phaseResult, error) {
	start := time.Now()
	results := make([]phaseResult, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(res *phaseResult, errp *error, cl loadClient) {
			defer wg.Done()
			sp := parent.child("client")
			defer func() { sp.end(*errp) }()
			fails := 0
			for time.Since(start) < d {
				t0 := time.Now()
				res.attempted++
				n, err := cl.runOp(ctx, sp)
				t1 := time.Now()
				if err != nil {
					res.failed++
					if fails++; fails >= maxAttempts || ctx.Err() != nil {
						*errp = err
						return
					}
					time.Sleep(5 * time.Millisecond)
					continue
				}
				fails = 0
				if n > 0 {
					res.ops = append(res.ops, op{end: t1.Sub(start), dur: t1.Sub(t0), events: n})
				}
			}
		}(&results[i], &errs[i], cl)
	}
	wg.Wait()
	var out phaseResult
	for i := range results {
		out.add(results[i])
		if errs[i] != nil {
			return out, fmt.Errorf("client %d: %w", i, errs[i])
		}
	}
	return out, nil
}

// newClients builds one API client per load goroutine, sharing a
// transport capped at one connection per client.
func newClients(base, ridPrefix string, n int) []*client {
	hc := &http.Client{Transport: newTransport(n)}
	out := make([]*client, n)
	for i := range out {
		out[i] = &client{base: base, hc: hc, ridPrefix: fmt.Sprintf("%s-%d", ridPrefix, i)}
	}
	return out
}

// metricsDigest hashes the canonical JSON of the metrics in a session
// reply, the encoding the serve-vs-local comparison is defined on.
func metricsDigest(reply []byte) ([32]byte, error) {
	var s serve.SessionJSON
	if err := json.Unmarshal(reply, &s); err != nil {
		return [32]byte{}, fmt.Errorf("session reply: %w", err)
	}
	if s.Metrics == nil {
		return [32]byte{}, fmt.Errorf("session reply carries no metrics")
	}
	b, err := json.Marshal(s.Metrics)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// localDigest is metricsDigest of a locally computed result.
func localDigest(m core.Metrics) ([32]byte, error) {
	b, err := json.Marshal(serve.MetricsToJSON(m))
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// streamClient owns one long-lived session and posts the pool's batches
// in its own seed-drawn order, cycling.
type streamClient struct {
	c     *client
	in    *inputs
	id    string
	cfg   evalSpec
	order []int
	sent  int // batches acked
	final [32]byte
}

func (sc *streamClient) runOp(ctx context.Context, parent *span) (int, error) {
	b := sc.in.pool[sc.order[sc.sent%len(sc.order)]]
	path := fmt.Sprintf("/v1/sessions/%s/events?seq=%d", sc.id, sc.sent+1)
	if _, err := sc.c.do(ctx, parent, "post_events", http.MethodPost, path, ctypeBinary, b.payload); err != nil {
		return 0, err
	}
	sc.sent++
	return len(b.events), nil
}

// open creates the client's session.
func (sc *streamClient) open(ctx context.Context) error {
	body, err := json.Marshal(serve.SessionRequest{ID: sc.id, Spec: sc.cfg.spec.String(), EvalOptions: sc.cfg.opts})
	if err != nil {
		return err
	}
	_, err = sc.c.do(ctx, nil, "create_session", http.MethodPost, "/v1/sessions", ctypeJSON, body)
	return err
}

// close deletes the session and keeps the digest of its final metrics.
func (sc *streamClient) close(ctx context.Context) error {
	raw, err := sc.c.do(ctx, nil, "delete_session", http.MethodDelete, "/v1/sessions/"+sc.id, "", nil)
	if err != nil {
		return err
	}
	sc.final, err = metricsDigest(raw)
	return err
}

// verify replays the exact batch sequence the session received through a
// local evaluator; the final metrics must be byte-identical.
func (sc *streamClient) verify() error {
	e, err := sc.cfg.evaluator()
	if err != nil {
		return err
	}
	for i := 0; i < sc.sent; i++ {
		b := &sc.in.pool[sc.order[i%len(sc.order)]]
		e.FeedBatch(b.events)
		e.AddInsts(b.insts)
	}
	want, err := localDigest(e.Metrics())
	if err != nil {
		return err
	}
	if want != sc.final {
		return fmt.Errorf("session %s: final metrics differ from a local replay of its %d batches", sc.id, sc.sent)
	}
	return nil
}

// lifetime is one session of the churn schedule: create, k batches,
// snapshot, delete, restore from the snapshot, k more batches, stats,
// metrics read, delete. The digests record what the server returned.
type lifetime struct {
	id      string
	cfg     evalSpec
	create  []byte
	batches []batch // 2k: the first k before the snapshot

	snapDigest, getDigest, finalDigest [32]byte
}

// ops is the number of requests in the lifetime.
func (lt *lifetime) ops() int { return len(lt.batches) + 7 }

// lifetimeGen draws one client's lifetimes from the seed.
type lifetimeGen struct {
	in     *inputs
	r      *rng.Source
	prefix string
	n      int
}

func (g *lifetimeGen) next() (*lifetime, error) {
	g.n++
	lt := &lifetime{id: fmt.Sprintf("%s-%d", g.prefix, g.n), cfg: g.in.configs[g.r.Intn(len(g.in.configs))]}
	k := 2 + g.r.Intn(5)
	sizes := make([]int, 2*k)
	total := 0
	for i := range sizes {
		sizes[i] = g.in.batchSize(g.r)
		total += sizes[i]
	}
	// Keep the lifetime inside one trace, so its steps never go
	// backwards: drop batch pairs until the longest trace holds it.
	for longest := g.in.longestTrace(); total > longest && len(sizes) > 2; sizes = sizes[:len(sizes)-2] {
		total -= sizes[len(sizes)-1] + sizes[len(sizes)-2]
	}
	events := g.in.cut(g.r, total)
	for _, n := range sizes {
		b, err := newBatch(events[:n:n])
		if err != nil {
			return nil, err
		}
		lt.batches = append(lt.batches, b)
		events = events[n:]
	}
	var err error
	lt.create, err = json.Marshal(serve.SessionRequest{ID: lt.id, Spec: lt.cfg.spec.String(), EvalOptions: lt.cfg.opts})
	return lt, err
}

// describe writes the lifetime's schedule (not its results) for the
// op-schedule hash.
func (lt *lifetime) describe(h hash.Hash) {
	fmt.Fprintf(h, "%s %s %+v:", lt.id, lt.cfg.spec, lt.cfg.opts)
	for _, b := range lt.batches {
		fmt.Fprintf(h, " %d@%d/%d", len(b.events), b.events[0].PC, b.events[0].Step)
	}
	fmt.Fprintln(h)
}

// churnClient walks its lifetimes one request at a time, so a phase can
// end between any two requests and the next phase resumes there.
type churnClient struct {
	c     *client
	gen   *lifetimeGen
	cur   *lifetime
	step  int    // next request of cur
	snap  []byte // cur's snapshot, between its get and its restore
	lives []*lifetime
}

func (cc *churnClient) runOp(ctx context.Context, parent *span) (int, error) {
	if cc.cur == nil {
		lt, err := cc.gen.next()
		if err != nil {
			return 0, err
		}
		cc.cur, cc.step = lt, 0
	}
	lt := cc.cur
	k := len(lt.batches) / 2
	path := "/v1/sessions/" + lt.id
	s := cc.step
	posted := 0
	var raw []byte
	var err error
	switch {
	case s == 0:
		_, err = cc.c.do(ctx, parent, "create_session", http.MethodPost, "/v1/sessions", ctypeJSON, lt.create)
	case s <= k || (s >= k+4 && s <= 2*k+3):
		i := s - 1
		if s > k {
			i = s - 4
		}
		b := &lt.batches[i]
		if _, err = cc.c.do(ctx, parent, "post_events", http.MethodPost, fmt.Sprintf("%s/events?seq=%d", path, i+1), ctypeBinary, b.payload); err == nil {
			// Verification replays the events; the encoding is only
			// needed until the server has acknowledged it.
			b.payload = nil
			posted = len(b.events)
		}
	case s == k+1:
		if cc.snap, err = cc.c.do(ctx, parent, "get_snapshot", http.MethodGet, path+"/snapshot", "", nil); err == nil {
			lt.snapDigest = sha256.Sum256(cc.snap)
		}
	case s == k+2:
		_, err = cc.c.do(ctx, parent, "delete_session", http.MethodDelete, path, "", nil)
	case s == k+3:
		_, err = cc.c.do(ctx, parent, "restore_session", http.MethodPost, path+"/restore", ctypeBinary, cc.snap)
	case s == 2*k+4:
		_, err = cc.c.do(ctx, parent, "get_stats", http.MethodGet, path+"/stats?k=10", "", nil)
	case s == 2*k+5:
		if raw, err = cc.c.do(ctx, parent, "get_session", http.MethodGet, path, "", nil); err == nil {
			lt.getDigest, err = metricsDigest(raw)
		}
	default:
		if raw, err = cc.c.do(ctx, parent, "delete_session", http.MethodDelete, path, "", nil); err == nil {
			lt.finalDigest, err = metricsDigest(raw)
		}
	}
	if err != nil {
		return 0, err
	}
	cc.step++
	if cc.step == lt.ops() {
		cc.lives = append(cc.lives, lt)
		cc.cur, cc.snap = nil, nil
	}
	return posted, nil
}

// drain finishes the lifetime in progress, outside any timed phase.
func (cc *churnClient) drain(ctx context.Context) error {
	for cc.cur != nil {
		if _, err := cc.runOp(ctx, nil); err != nil {
			return err
		}
	}
	return nil
}

// snapCost is what one local snapshot round trip took.
type snapCost struct {
	encode, decode time.Duration
	bytes          int
}

// verify replays a finished lifetime locally: the snapshot the server
// returned must be byte-identical to a local snap.Encode at the same
// point, and the metrics after the restore and the second half must be
// byte-identical to the server's read and final delete. It reports what
// the local snap.Encode and snap.Decode took.
func (lt *lifetime) verify() (snapCost, error) {
	var cost snapCost
	e, err := lt.cfg.evaluator()
	if err != nil {
		return cost, err
	}
	k := len(lt.batches) / 2
	var events uint64
	for _, b := range lt.batches[:k] {
		e.FeedBatch(b.events)
		e.AddInsts(b.insts)
		events += uint64(len(b.events))
	}
	t0 := time.Now()
	blob, err := snap.Encode(lt.cfg.spec, e, snap.Meta{SessionID: lt.id, Events: events, Batches: uint64(k), LastSeq: uint64(k)})
	cost.encode, cost.bytes = time.Since(t0), len(blob)
	if err != nil {
		return cost, err
	}
	if sha256.Sum256(blob) != lt.snapDigest {
		return cost, fmt.Errorf("session %s: snapshot differs from a local encode after %d batches", lt.id, k)
	}
	t0 = time.Now()
	res, err := snap.Decode(blob)
	cost.decode = time.Since(t0)
	if err != nil {
		return cost, err
	}
	for _, b := range lt.batches[k:] {
		res.Eval.FeedBatch(b.events)
		res.Eval.AddInsts(b.insts)
	}
	want, err := localDigest(res.Eval.Metrics())
	if err != nil {
		return cost, err
	}
	if want != lt.getDigest || want != lt.finalDigest {
		return cost, fmt.Errorf("session %s: metrics after restore differ from a local replay", lt.id)
	}
	return cost, nil
}
