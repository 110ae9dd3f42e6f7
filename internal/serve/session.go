package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Session-manager errors, mapped to HTTP statuses by the handlers.
var (
	// ErrNotFound reports an unknown (or already evicted/expired) session.
	ErrNotFound = errors.New("serve: session not found")
	// ErrBusy reports a full shard batch queue; the client should back off
	// and retry (HTTP 429).
	ErrBusy = errors.New("serve: batch queue full")
	// ErrFull reports that the session table is at capacity and every
	// resident session is live (recently used), so none can be evicted.
	ErrFull = errors.New("serve: session capacity reached")
	// ErrClosing reports a manager that is draining for shutdown.
	ErrClosing = errors.New("serve: server shutting down")
	// ErrExists reports a create or restore under a session ID that is
	// already resident (or spilled to disk) — HTTP 409.
	ErrExists = errors.New("serve: session already exists")
	// ErrSeqGap reports a batch whose sequence number skips ahead of the
	// session's last applied batch: an earlier batch was lost, so applying
	// this one would silently corrupt the stream — HTTP 409.
	ErrSeqGap = errors.New("serve: batch sequence gap")
	// ErrBadID reports a client-supplied session ID outside the allowed
	// charset ([A-Za-z0-9_-], at most 64 bytes).
	ErrBadID = errors.New("serve: invalid session id")
)

// SessionInfo is the externally visible state of one session.
type SessionInfo struct {
	ID       string
	Spec     string
	Events   uint64
	Batches  uint64
	LastSeq  uint64
	Created  time.Time
	LastUsed time.Time
	Metrics  core.Metrics
}

// FeedResult acknowledges one accepted batch.
type FeedResult struct {
	Events      int    // events in this batch
	TotalEvents uint64 // session lifetime total
	Duplicate   bool   // batch seq already applied; acknowledged, not re-applied
	Info        *SessionInfo
}

// session is the manager-internal state; owned exclusively by its shard's
// goroutine, so no field needs locking.
type session struct {
	id      string
	spec    sim.Spec
	eval    *core.Evaluator
	events  uint64
	batches uint64
	lastSeq uint64 // highest applied batch sequence number (0 = none)
	// specBytes is specBytes(spec), computed once at construction.
	specBytes int64
	bytes     int64
	created   time.Time
	last      time.Time
	elem      *list.Element
}

func (s *session) info(withMetrics bool) *SessionInfo {
	inf := &SessionInfo{
		ID: s.id, Spec: s.spec.String(),
		Events: s.events, Batches: s.batches, LastSeq: s.lastSeq,
		Created: s.created, LastUsed: s.last,
	}
	if withMetrics {
		inf.Metrics = s.eval.MetricsSnapshot()
	} else {
		// Cheap summary: the counter fields without cloning ByPC.
		inf.Metrics = s.eval.Metrics()
		inf.Metrics.ByPC = nil
	}
	return inf
}

// shard owns a partition of the session table. All mutation happens on
// the shard's run goroutine, which executes queued ops one at a time in
// arrival order: single-writer ownership means the event-feed hot path
// takes no locks.
type shard struct {
	mgr *sessionManager

	ops  chan func()
	quit chan struct{}

	// Owned by the run goroutine.
	sessions map[string]*session
	lru      *list.List // front = most recently used
	bytes    int64

	maxSessions int
	maxBytes    int64
}

func (sh *shard) run(ttl, sweepEvery time.Duration) {
	defer sh.mgr.wg.Done()
	ticker := time.NewTicker(sweepEvery)
	defer ticker.Stop()
	for {
		select {
		case op := <-sh.ops:
			sh.exec(op)
		case <-ticker.C:
			if ttl > 0 {
				sh.expire(sh.mgr.now())
			}
			sh.makeRoom(sh.mgr.now(), 0)
		case <-sh.quit:
			// Drain: every op already enqueued executes before exit, so
			// in-flight batches are never dropped by shutdown.
			for {
				select {
				case op := <-sh.ops:
					sh.exec(op)
				default:
					return
				}
			}
		}
	}
}

// exec runs one queued op; bpservd_sched_passes_total counts them.
func (sh *shard) exec(op func()) {
	sh.mgr.tel.opsExecuted.Inc()
	op()
}

// feed applies one event batch to a session and acknowledges it, so an
// acked batch is always applied state. Sequence-numbered batches are
// exactly-once: a seq at or below the last applied one is a retry of
// work already done (common after a failover, when the client re-sends
// an acked batch) and is acknowledged without re-feeding; a seq that
// skips ahead means a batch was lost and the stream cannot be applied
// faithfully. A found session counts as used and is re-sized whatever
// its batch's fate, and every feed ends by bringing the shard back
// within its bounds.
func (sh *shard) feed(id string, events []trace.Event, insts, seq uint64, withMetrics bool) (FeedResult, error) {
	defer func() { sh.makeRoom(sh.mgr.now(), 0) }()
	now := sh.mgr.now()
	s, ok := sh.lookup(id, now)
	if !ok {
		return FeedResult{}, ErrNotFound
	}
	defer func() {
		sh.touch(s, now)
		sh.setBytes(s, s.specBytes+int64(len(s.eval.Metrics().ByPC))*96)
	}()
	dup := seq > 0 && seq <= s.lastSeq
	if !dup {
		if seq > 0 && s.lastSeq > 0 && seq != s.lastSeq+1 {
			return FeedResult{}, fmt.Errorf("%w: batch seq %d after %d", ErrSeqGap, seq, s.lastSeq)
		}
		if seq > 0 {
			s.lastSeq = seq
		}
		// The hot path: one goroutine, no locks.
		s.eval.FeedBatch(events)
		s.eval.AddInsts(insts)
		s.events += uint64(len(events))
		s.batches++
		sh.mgr.tel.events.Add(uint64(len(events)))
		sh.mgr.tel.batches.Inc()
	}
	res := FeedResult{Events: len(events), TotalEvents: s.events, Duplicate: dup}
	if withMetrics {
		res.Info = s.info(true)
	}
	return res, nil
}

// insert adds a newly built session, accounted at its spec estimate.
func (sh *shard) insert(s *session) {
	s.bytes = s.specBytes
	sh.sessions[s.id] = s
	s.elem = sh.lru.PushFront(s)
	sh.bytes += s.bytes
	sh.mgr.live.Add(1)
	sh.mgr.bytes.Add(s.bytes)
}

func (sh *shard) touch(s *session, now time.Time) {
	s.last = now
	sh.lru.MoveToFront(s.elem)
}

func (sh *shard) setBytes(s *session, b int64) {
	sh.bytes += b - s.bytes
	sh.mgr.bytes.Add(b - s.bytes)
	s.bytes = b
}

func (sh *shard) remove(s *session, c *telemetry.Counter) {
	delete(sh.sessions, s.id)
	sh.lru.Remove(s.elem)
	sh.bytes -= s.bytes
	sh.mgr.live.Add(-1)
	sh.mgr.bytes.Add(-s.bytes)
	c.Inc()
}

// spill writes the session's snapshot to the spill store, if one is
// configured. Returns true if the session's state is durable on disk.
func (sh *shard) spill(s *session) bool {
	st := sh.mgr.spill
	if st == nil {
		return false
	}
	blob, err := snap.Encode(s.spec, s.eval, snap.Meta{
		SessionID: s.id, Events: s.events, Batches: s.batches, LastSeq: s.lastSeq,
	})
	if err == nil {
		err = st.write(s.id, snap.Key(s.spec, s.eval.Config()), blob)
	}
	if err != nil {
		sh.mgr.tel.spillErrors.Inc()
		return false
	}
	sh.mgr.tel.sessSpilled.Inc()
	return true
}

// evict removes a session for capacity or idleness, spilling its state
// to disk first when a spill store is configured: eviction then demotes
// the session from memory to disk instead of destroying it.
func (sh *shard) evict(s *session, c *telemetry.Counter) {
	sh.spill(s)
	sh.remove(s, c)
}

// restore warm-restores a spilled session back into the shard. Returns
// nil if no spill file exists or it fails to decode (a corrupt file is
// removed so it cannot wedge the ID forever).
func (sh *shard) restore(id string, now time.Time) *session {
	st := sh.mgr.spill
	if st == nil {
		return nil
	}
	res, path, err := st.load(id)
	if err != nil {
		if path != "" {
			sh.mgr.tel.restoreFailures.Inc()
			st.removePath(path)
		}
		return nil
	}
	if !sh.makeRoom(now, 1) {
		return nil // table full of live sessions; the spill file stays
	}
	s := &session{
		id: id, spec: res.Spec, eval: res.Eval,
		events: res.Meta.Events, batches: res.Meta.Batches, lastSeq: res.Meta.LastSeq,
		specBytes: specBytes(res.Spec),
		created:   now, last: now,
	}
	sh.insert(s)
	sh.mgr.tel.warmRestores.Inc()
	st.removePath(path) // the resident copy is authoritative again
	return s
}

// lookup finds a resident session, falling back to a warm restore from
// the spill store on a miss.
func (sh *shard) lookup(id string, now time.Time) (*session, bool) {
	if s, ok := sh.sessions[id]; ok {
		return s, true
	}
	if s := sh.restore(id, now); s != nil {
		return s, true
	}
	return nil, false
}

// expire drops sessions idle longer than the TTL.
func (sh *shard) expire(now time.Time) {
	ttl := sh.mgr.cfg.SessionTTL
	for e := sh.lru.Back(); e != nil; {
		s := e.Value.(*session)
		prev := e.Prev()
		if now.Sub(s.last) <= ttl {
			break // LRU order: everything further forward is younger
		}
		sh.evict(s, sh.mgr.tel.sessExpired)
		e = prev
	}
}

// makeRoom evicts least-recently-used sessions until the shard fits one
// more session plus the count/byte bounds. Only sessions idle at least
// MinEvictIdle are candidates: a live session — one a client is actively
// feeding or polling — is never evicted, so its metrics cannot be lost to
// capacity pressure. Returns false if the bounds cannot be met.
func (sh *shard) makeRoom(now time.Time, extra int) bool {
	over := func() bool {
		return len(sh.sessions)+extra > sh.maxSessions || sh.bytes > sh.maxBytes
	}
	for over() {
		// The LRU tail is the least recently used session; if even it is
		// younger than MinEvictIdle, no session is evictable.
		e := sh.lru.Back()
		if e == nil {
			return !over()
		}
		s := e.Value.(*session)
		if now.Sub(s.last) < sh.mgr.cfg.MinEvictIdle {
			return !over()
		}
		sh.evict(s, sh.mgr.tel.sessEvicted)
	}
	return true
}

// sessionManager shards sessions across a fixed set of single-writer
// workers. Session IDs hash to a shard; every operation on a session runs
// on that shard's goroutine.
type sessionManager struct {
	cfg   Config
	tel   *serverMetrics
	now   func() time.Time
	spill *spillStore // nil when SpillDir is unset

	shards []*shard
	ids    *telemetry.IDs // session IDs: s%06x-%08x

	live   atomic.Int64
	bytes  atomic.Int64
	closed atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup
}

func newSessionManager(cfg Config, tel *serverMetrics, spill *spillStore) *sessionManager {
	m := &sessionManager{
		cfg: cfg, tel: tel, now: cfg.Now, spill: spill,
		ids:  telemetry.NewIDs("s"),
		done: make(chan struct{}),
	}
	perShardSessions := (cfg.MaxSessions + cfg.Shards - 1) / cfg.Shards
	if perShardSessions < 1 {
		perShardSessions = 1
	}
	perShardBytes := cfg.MaxSessionBytes / int64(cfg.Shards)
	if perShardBytes < 1 {
		perShardBytes = 1
	}
	sweepEvery := time.Second
	if ttl := cfg.SessionTTL; ttl > 0 && ttl/4 < sweepEvery {
		sweepEvery = ttl / 4
		if sweepEvery < time.Millisecond {
			sweepEvery = time.Millisecond
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			mgr:         m,
			ops:         make(chan func(), cfg.QueueDepth),
			quit:        make(chan struct{}),
			sessions:    make(map[string]*session),
			lru:         list.New(),
			maxSessions: perShardSessions,
			maxBytes:    perShardBytes,
		}
		m.shards = append(m.shards, sh)
		m.wg.Add(1)
		go sh.run(cfg.SessionTTL, sweepEvery)
	}
	return m
}

func (m *sessionManager) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return m.shards[h.Sum32()%uint32(len(m.shards))]
}

// enqueue submits an op to a shard. Blocking ops wait for queue space
// (bounded by ctx); batch ops instead fail fast with ErrBusy when the
// queue is full — the HTTP layer turns that into 429 backpressure.
func (m *sessionManager) enqueue(ctx context.Context, sh *shard, op func(), block bool) error {
	if m.closed.Load() {
		return ErrClosing
	}
	if !block {
		select {
		case sh.ops <- op:
			return nil
		default:
			return ErrBusy
		}
	}
	select {
	case sh.ops <- op:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-m.done:
		return ErrClosing
	}
}

// do runs f on the shard's goroutine and returns its outcome: every
// session-manager call is one do. A context error means f may still be
// queued and run later.
func do[T any](ctx context.Context, m *sessionManager, sh *shard, block bool, f func() (T, error)) (T, error) {
	type result struct {
		v   T
		err error
	}
	reply := make(chan result, 1)
	var zero T
	if err := m.enqueue(ctx, sh, func() {
		v, err := f()
		reply <- result{v, err}
	}, block); err != nil {
		return zero, err
	}
	select {
	case r := <-reply:
		return r.v, r.err
	case <-ctx.Done():
		return zero, ctx.Err()
	case <-m.done:
		// All workers have exited, so no op is mid-run: either ours ran
		// before the drain finished (reply is ready) or it never will.
		select {
		case r := <-reply:
			return r.v, r.err
		default:
			return zero, ErrClosing
		}
	}
}

// onSession runs f on session id's shard goroutine, warm-restoring the
// session from the spill store if it is not resident; ErrNotFound if it
// exists in neither.
func onSession[T any](ctx context.Context, m *sessionManager, id string, f func(*shard, *session) (T, error)) (T, error) {
	sh := m.shardFor(id)
	return do(ctx, m, sh, true, func() (T, error) {
		s, ok := sh.lookup(id, m.now())
		if !ok {
			var zero T
			return zero, ErrNotFound
		}
		return f(sh, s)
	})
}

// Create builds a session for the spec/config and returns its info. The
// predictor inside cfg must be freshly built (ownership transfers to the
// shard goroutine). An empty id asks the server to generate one; a
// client-supplied id (the bprouter relies on this to route by consistent
// hash) must be unused, both resident and on disk.
func (m *sessionManager) Create(ctx context.Context, id string, spec sim.Spec, cfg core.EvalConfig) (*SessionInfo, error) {
	explicit := id != ""
	if explicit && !validSessionID(id) {
		return nil, ErrBadID
	}
	if !explicit {
		id = m.ids.Next()
	}
	return m.install(ctx, &session{
		id: id, spec: spec,
		eval:      core.NewEvaluator(cfg),
		specBytes: specBytes(spec),
	}, explicit)
}

// Feed streams one batch of events into a session. It applies
// backpressure (ErrBusy) instead of blocking when the shard queue is
// full. The events slice must not be reused by the caller until Feed
// returns the op's own outcome (nil or a manager error, meaning the op
// ran or never will); after a context error the op may still be queued
// and the slice must be considered retained.
func (m *sessionManager) Feed(ctx context.Context, id string, events []trace.Event, insts uint64, seq uint64, withMetrics bool) (FeedResult, error) {
	sh := m.shardFor(id)
	return do(ctx, m, sh, false, func() (FeedResult, error) {
		return sh.feed(id, events, insts, seq, withMetrics)
	})
}

// Metrics returns a snapshot of the session's metrics; it counts as a use
// for LRU/TTL purposes, so polled sessions stay live.
func (m *sessionManager) Metrics(ctx context.Context, id string) (*SessionInfo, error) {
	return onSession(ctx, m, id, func(sh *shard, s *session) (*SessionInfo, error) {
		sh.touch(s, m.now())
		return s.info(true), nil
	})
}

// Delete closes a session and returns its final metrics. Any spill file
// is removed too: a deleted session is gone, not demoted.
func (m *sessionManager) Delete(ctx context.Context, id string) (*SessionInfo, error) {
	return onSession(ctx, m, id, func(sh *shard, s *session) (*SessionInfo, error) {
		inf := s.info(true)
		sh.remove(s, m.tel.sessClosed)
		if m.spill != nil {
			m.spill.remove(id)
		}
		return inf, nil
	})
}

// Snapshot serializes a session (resident or spilled) without removing
// it. The returned bytes are a self-contained snap.Encode blob; the
// bprouter migrates sessions between backends with it.
func (m *sessionManager) Snapshot(ctx context.Context, id string) ([]byte, error) {
	return onSession(ctx, m, id, func(sh *shard, s *session) ([]byte, error) {
		sh.touch(s, m.now())
		return snap.Encode(s.spec, s.eval, snap.Meta{
			SessionID: s.id, Events: s.events, Batches: s.batches, LastSeq: s.lastSeq,
		})
	})
}

// Restore installs an already decoded snapshot as a session. The target
// ID (from the URL) must match the snapshot's own session ID, and the ID
// must be free — restore creates, it does not overwrite.
func (m *sessionManager) Restore(ctx context.Context, id string, res *snap.Restored) (*SessionInfo, error) {
	if !validSessionID(id) {
		return nil, ErrBadID
	}
	if res.Meta.SessionID != id {
		return nil, fmt.Errorf("%w: snapshot is of session %q", ErrBadID, res.Meta.SessionID)
	}
	return m.install(ctx, &session{
		id: id, spec: res.Spec, eval: res.Eval,
		events: res.Meta.Events, batches: res.Meta.Batches, lastSeq: res.Meta.LastSeq,
		specBytes: specBytes(res.Spec),
	}, true)
}

// install makes s a resident session on its shard, stamped with the
// current time as both its creation and last use: Create and Restore
// both end here. A client-supplied ID (checkID) must be unused, both
// resident and on disk; a server-generated one is fresh by construction.
// Room is made by evicting idle sessions, and a table full of live ones
// fails with ErrFull.
func (m *sessionManager) install(ctx context.Context, s *session, checkID bool) (*SessionInfo, error) {
	sh := m.shardFor(s.id)
	return do(ctx, m, sh, true, func() (*SessionInfo, error) {
		if checkID {
			if _, ok := sh.sessions[s.id]; ok || (m.spill != nil && m.spill.has(s.id)) {
				return nil, ErrExists
			}
		}
		now := m.now()
		if !sh.makeRoom(now, 1) {
			return nil, ErrFull
		}
		s.created, s.last = now, now
		sh.insert(s)
		m.tel.sessCreated.Inc()
		return s.info(false), nil
	})
}

// Stats builds a session's per-branch introspection report: totals plus
// the top-k branches by misprediction count. perBranch reports whether
// the session collects per-branch statistics at all (a session created
// without per_branch returns an empty report, not an error). Reading
// stats counts as a use for LRU/TTL purposes.
func (m *sessionManager) Stats(ctx context.Context, id string, k int) (*SessionInfo, core.BranchReport, bool, error) {
	type stats struct {
		inf       *SessionInfo
		rep       core.BranchReport
		perBranch bool
	}
	st, err := onSession(ctx, m, id, func(sh *shard, s *session) (stats, error) {
		sh.touch(s, m.now())
		mt := s.eval.Metrics()
		return stats{s.info(false), mt.BranchReport(k), s.eval.Config().PerBranch}, nil
	})
	return st.inf, st.rep, st.perBranch, err
}

// h2pTimeout bounds the shard sweep behind the aggregate H2P metric
// families, so a wedged shard cannot hang a /metrics scrape.
const h2pTimeout = 2 * time.Second

// H2PTop merges per-branch statistics across every resident session and
// returns the k hardest branches fleet-wide (most mispredicted first,
// ties toward the lower PC). Shards that cannot answer within the
// internal timeout are skipped — a scrape-time ranking may be partial,
// never blocking.
func (m *sessionManager) H2PTop(k int) []core.BranchStats {
	agg := make(map[uint64]*core.BranchStats)
	ctx, cancel := context.WithTimeout(context.Background(), h2pTimeout)
	defer cancel()
	for _, sh := range m.shards {
		// The shard's goroutine copies its sessions' stats into a fresh
		// map: the live ByPC maps are never read off that goroutine.
		part, err := do(ctx, m, sh, true, func() (map[uint64]*core.BranchStats, error) {
			part := make(map[uint64]*core.BranchStats)
			for _, s := range sh.sessions {
				addBranches(part, s.eval.Metrics().ByPC)
			}
			return part, nil
		})
		if err == nil {
			addBranches(agg, part)
		}
	}
	rep := (&core.Metrics{ByPC: agg}).BranchReport(k)
	return rep.Top
}

// addBranches adds src's per-branch statistics into dst, PC by PC.
func addBranches(dst, src map[uint64]*core.BranchStats) {
	for pc, bs := range src {
		a := dst[pc]
		if a == nil {
			a = &core.BranchStats{PC: pc}
			dst[pc] = a
		}
		a.Count += bs.Count
		a.Taken += bs.Taken
		a.Mispredicts += bs.Mispredicts
		a.Filtered += bs.Filtered
		a.Region = a.Region || bs.Region
	}
}

// List returns summaries (no per-branch maps) of every live session.
func (m *sessionManager) List(ctx context.Context) ([]*SessionInfo, error) {
	var out []*SessionInfo
	for _, sh := range m.shards {
		batch, err := do(ctx, m, sh, true, func() ([]*SessionInfo, error) {
			var batch []*SessionInfo
			for e := sh.lru.Front(); e != nil; e = e.Next() {
				batch = append(batch, e.Value.(*session).info(false))
			}
			return batch, nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, batch...)
	}
	return out, nil
}

// Live returns the number of resident sessions.
func (m *sessionManager) Live() int64 { return m.live.Load() }

// Bytes returns the approximate resident session memory.
func (m *sessionManager) Bytes() int64 { return m.bytes.Load() }

// QueueDepth returns the total number of queued, unprocessed ops.
func (m *sessionManager) QueueDepth() int {
	n := 0
	for _, sh := range m.shards {
		n += len(sh.ops)
	}
	return n
}

// Close drains every shard: new work is refused, queued ops complete,
// workers exit. With a spill store configured, every still-live session
// is then snapshotted to disk — a SIGTERM'd backend loses no state, and
// another backend sharing the spill directory can warm-restore its
// sessions. It returns the number of sessions that were still live.
func (m *sessionManager) Close() int64 {
	if m.closed.Swap(true) {
		return m.live.Load()
	}
	for _, sh := range m.shards {
		close(sh.quit)
	}
	m.wg.Wait()
	close(m.done)
	live := m.live.Load()
	if m.spill != nil {
		// Workers have exited, so this goroutine is the sole owner now.
		for _, sh := range m.shards {
			for _, s := range sh.sessions {
				sh.spill(s)
			}
		}
	}
	return live
}

// specBytes estimates a session's resident footprint from its predictor
// spec: the dominant cost is the counter/weight tables, approximated as
// two bytes per table entry. Per-branch stat maps are added as they grow.
func specBytes(s sim.Spec) int64 {
	n, err := s.Normalized()
	if err != nil {
		return 1024
	}
	b := int64(1024)
	for _, bits := range []int{n.TableBits, n.PatBits} {
		if bits > 0 && bits <= 28 {
			b += 2 << uint(bits)
		}
	}
	if n.Kind == "gag" && n.HistBits > 0 && n.HistBits <= 28 {
		b += 2 << uint(n.HistBits)
	}
	return b
}
