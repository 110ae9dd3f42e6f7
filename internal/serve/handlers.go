package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ifconv"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, errCode, msg string) {
	body := ErrorBody{}
	body.Error.Code = errCode
	body.Error.Message = msg
	// The instrument wrapper echoes the request's correlation ID into
	// the response headers before the handler runs; surfacing it in the
	// envelope lets a client quote the exact ID when reporting a
	// failure, and lets an operator grep it across tiers.
	body.Error.RequestID = w.Header().Get(telemetry.RequestIDHeader)
	writeJSON(w, code, body)
}

// writeMgrError maps a session-manager error onto the error envelope.
func writeMgrError(w http.ResponseWriter, s *Server, err error) {
	code, errCode := httpStatus(err)
	if errors.Is(err, ErrBusy) {
		s.tel.backpressure.Inc()
	}
	writeError(w, code, errCode, err.Error())
}

// writeBodyError answers a request whose body could not be read: 413
// when the body exceeded the server's MaxBody, else 400 with errCode and
// msg.
func writeBodyError(w http.ResponseWriter, err error, errCode, msg string) {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, errCode, msg)
}

// decodeJSON reads a JSON body, translating an oversized body into 413.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBodyError(w, err, "bad_request", "malformed JSON body: "+err.Error())
		return false
	}
	return true
}

func isBinary(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return strings.HasPrefix(ct, "application/octet-stream") || strings.HasPrefix(ct, "application/x-p64-trace")
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	spec, err := sim.Parse(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_spec", err.Error())
		return
	}
	cfg, err := req.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	cfg.Predictor, err = spec.New()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_spec", err.Error())
		return
	}
	inf, err := s.mgr.Create(r.Context(), req.ID, spec, cfg)
	if err != nil {
		writeMgrError(w, s, err)
		return
	}
	writeJSON(w, http.StatusCreated, sessionJSON(inf, false))
}

// batchPool recycles event scratch buffers for the binary batch-feed hot
// path: a steady-state feed decodes each P64T batch into a pooled slice
// and hands it to the session's single FeedBatch call, so the per-batch
// cost is one header allocation rather than one event-array allocation
// per request. Buffers are only returned to the pool when the shard op
// provably ran or never will (see handlePostEvents).
var batchPool = sync.Pool{
	New: func() any {
		b := make([]trace.Event, 0, 8192)
		return &b
	},
}

// readerPool recycles the bufio.Reader each binary body decode reads
// the request body through. The decoder reads event records into the
// event slice; bufio passes a read of at least its buffer size straight
// to the body and serves the rest (the header, the records a fill
// brought in with it, the trailing-bytes check) from its 64 KiB buffer.
// Pooling it keeps the per-request allocation profile flat.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 64<<10) },
}

// errTrailingBytes rejects a binary body that continues past its trace.
var errTrailingBytes = errors.New("trace: bytes after the last event")

// readTraceBody decodes a binary (P64T) request body into scratch, as
// trace.ReadTraceFrom does, through a pooled reader. The body must be
// exactly one trace: bytes left after the declared event count are an
// error, so a client cannot lose a concatenated second batch unnoticed.
func readTraceBody(body io.Reader, scratch []trace.Event) (*trace.Trace, error) {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(body)
	tr, err := trace.ReadTraceFrom(br, scratch)
	if err == nil {
		if _, err = br.ReadByte(); err == nil {
			err = errTrailingBytes
		} else if err == io.EOF {
			err = nil
		}
	}
	br.Reset(nil) // drop the body reference before pooling
	readerPool.Put(br)
	if err != nil {
		return nil, err
	}
	return tr, nil
}

func (s *Server) handlePostEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var events []trace.Event
	var insts, seq uint64
	var pooled *[]trace.Event
	if v := r.URL.Query().Get("seq"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad seq %q", v))
			return
		}
		seq = n
	}
	if isBinary(r) {
		pooled = batchPool.Get().(*[]trace.Event)
		tr, err := readTraceBody(r.Body, *pooled)
		if err != nil {
			batchPool.Put(pooled)
			writeBodyError(w, err, "bad_trace", err.Error())
			return
		}
		*pooled = tr.Events[:0] // keep the (possibly grown) backing array
		events, insts = tr.Events, tr.Insts
	} else {
		var req BatchRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		events = make([]trace.Event, len(req.Events))
		for i, ej := range req.Events {
			ev, err := ej.Event()
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad_event", fmt.Sprintf("event %d: %v", i, err))
				return
			}
			events[i] = ev
		}
		insts = req.Insts
		if req.Seq != 0 {
			seq = req.Seq
		}
	}
	withMetrics := r.URL.Query().Get("metrics") == "1"
	res, err := s.mgr.Feed(r.Context(), id, events, insts, seq, withMetrics)
	if pooled != nil && (err == nil || errors.Is(err, ErrNotFound) || errors.Is(err, ErrBusy) ||
		errors.Is(err, ErrFull) || errors.Is(err, ErrClosing) || errors.Is(err, ErrSeqGap)) {
		// The op completed (or was refused before enqueue), so the shard
		// holds no reference to the buffer. A context error instead means
		// the op may still be queued — the buffer is dropped, not pooled.
		batchPool.Put(pooled)
	}
	if err != nil {
		writeMgrError(w, s, err)
		return
	}
	resp := BatchResponse{Events: res.Events, TotalEvents: res.TotalEvents, Duplicate: res.Duplicate}
	if res.Info != nil {
		mj := MetricsToJSON(res.Info.Metrics)
		resp.Metrics = &mj
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	inf, err := s.mgr.Metrics(r.Context(), r.PathValue("id"))
	if err != nil {
		writeMgrError(w, s, err)
		return
	}
	writeJSON(w, http.StatusOK, sessionJSON(inf, true))
}

// handleStats serves the per-branch introspection report: how many
// static branches a session has seen, aggregate accuracy, and the top-k
// hardest (most mispredicted) branches. ?k= adjusts the ranking depth.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	k := 10
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 1000 {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad k %q (want 1..1000)", v))
			return
		}
		k = n
	}
	inf, rep, perBranch, err := s.mgr.Stats(r.Context(), r.PathValue("id"), k)
	if err != nil {
		writeMgrError(w, s, err)
		return
	}
	writeJSON(w, http.StatusOK, sessionStatsJSON(inf, rep, perBranch))
}

// handleGetSnapshot streams a session's P64S snapshot without removing
// the session: half of the bprouter's migration path (snapshot from the
// old backend, restore into the new one), and an operator backup tool.
func (s *Server) handleGetSnapshot(w http.ResponseWriter, r *http.Request) {
	blob, err := s.mgr.Snapshot(r.Context(), r.PathValue("id"))
	if err != nil {
		writeMgrError(w, s, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(blob)
}

// handleRestoreSession installs an uploaded P64S snapshot as a session.
// The snapshot self-validates (checksum, version, config key) before any
// state is constructed; the URL ID must match the snapshot's own.
func (s *Server) handleRestoreSession(w http.ResponseWriter, r *http.Request) {
	blob, err := io.ReadAll(r.Body)
	if err != nil {
		writeBodyError(w, err, "bad_request", err.Error())
		return
	}
	res, err := snap.Decode(blob)
	if err != nil {
		s.tel.restoreFailures.Inc()
		code := "bad_snapshot"
		if errors.Is(err, snap.ErrVersion) {
			code = "snapshot_version"
		}
		writeError(w, http.StatusBadRequest, code, err.Error())
		return
	}
	inf, err := s.mgr.Restore(r.Context(), r.PathValue("id"), res)
	if err != nil {
		writeMgrError(w, s, err)
		return
	}
	writeJSON(w, http.StatusCreated, sessionJSON(inf, false))
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	inf, err := s.mgr.Delete(r.Context(), r.PathValue("id"))
	if err != nil {
		writeMgrError(w, s, err)
		return
	}
	writeJSON(w, http.StatusOK, sessionJSON(inf, true))
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	infos, err := s.mgr.List(r.Context())
	if err != nil {
		writeMgrError(w, s, err)
		return
	}
	out := SessionList{Count: len(infos), Sessions: make([]SessionJSON, 0, len(infos))}
	for _, inf := range infos {
		out.Sessions = append(out.Sessions, sessionJSON(inf, false))
	}
	writeJSON(w, http.StatusOK, out)
}

// parseSweepQuery reads the query-parameter form of a sweep request used
// with binary trace uploads.
func parseSweepQuery(r *http.Request) (SweepRequest, error) {
	q := r.URL.Query()
	var req SweepRequest
	for _, v := range q["spec"] {
		for _, f := range strings.Split(v, ",") {
			if f = strings.TrimSpace(f); f != "" {
				req.Specs = append(req.Specs, f)
			}
		}
	}
	boolArg := func(key string) bool { v := q.Get(key); return v == "1" || v == "true" }
	req.SFPF = boolArg("sfpf")
	req.FilterTrue = boolArg("filter_true")
	req.TrainFiltered = boolArg("train_filtered")
	req.PerBranch = boolArg("per_branch")
	req.PGU = q.Get("pgu")
	for key, dst := range map[string]**uint64{"resolve_delay": &req.ResolveDelay, "pgu_delay": &req.PGUDelay} {
		if v := q.Get(key); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return req, fmt.Errorf("bad %s %q", key, v)
			}
			*dst = &n
		}
	}
	if v := q.Get("timeout_ms"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return req, fmt.Errorf("bad timeout_ms %q", v)
		}
		req.TimeoutMS = n
	}
	return req, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	var tr *trace.Trace
	if isBinary(r) {
		var err error
		if req, err = parseSweepQuery(r); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		if tr, err = readTraceBody(r.Body, nil); err != nil {
			writeBodyError(w, err, "bad_trace", err.Error())
			return
		}
	} else if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "no predictor specs given")
		return
	}
	if len(req.Specs) > s.cfg.MaxSweepSpecs {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("%d specs exceeds the per-request limit of %d", len(req.Specs), s.cfg.MaxSweepSpecs))
		return
	}
	specs := make([]sim.Spec, len(req.Specs))
	for i, text := range req.Specs {
		sp, err := sim.Parse(text)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_spec", err.Error())
			return
		}
		specs[i] = sp
	}
	baseCfg, err := req.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	if tr == nil {
		if req.Workload == "" {
			writeError(w, http.StatusBadRequest, "bad_request", "need a workload name or an uploaded trace")
			return
		}
		wl, err := workload.ByName(req.Workload)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_workload", err.Error())
			return
		}
		limit := req.Limit
		if limit == 0 {
			limit = 2_000_000
		}
		if limit > s.cfg.MaxSweepLimit {
			limit = s.cfg.MaxSweepLimit
		}
		p := wl.Build()
		if req.Convert {
			cp, _, err := ifconv.Convert(p, ifconv.Config{})
			if err != nil {
				writeError(w, http.StatusInternalServerError, "internal", err.Error())
				return
			}
			p = cp
		}
		if tr, err = trace.Collect(p, limit); err != nil {
			writeError(w, http.StatusBadRequest, "bad_workload", err.Error())
			return
		}
	}

	// Per-request deadline; the context is the request's, so a client
	// disconnect cancels the fan-out mid-sweep.
	timeout := s.cfg.SweepTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	s.tel.sweeps.Inc()
	s.tel.sweepEvals.Add(uint64(len(specs)))
	if s.sweepHold != nil {
		s.sweepHold(ctx)
	}
	rows, err := sim.Map(ctx, specs, s.cfg.SweepWorkers, func(ctx context.Context, sp sim.Spec) (SweepRow, error) {
		cfg := baseCfg
		var err error
		if cfg.Predictor, err = sp.New(); err != nil {
			return SweepRow{}, err
		}
		m, err := evaluateCtx(ctx, tr, cfg)
		if err != nil {
			return SweepRow{}, err
		}
		return SweepRow{Spec: sp.String(), Metrics: MetricsToJSON(m)}, nil
	})
	if err != nil {
		code, errCode := http.StatusInternalServerError, "internal"
		if ctx.Err() != nil {
			code, errCode = http.StatusGatewayTimeout, "timeout"
		}
		writeError(w, code, errCode, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, SweepResponse{Workload: tr.Name, Events: len(tr.Events), Rows: rows})
}

func (s *Server) handlePredictors(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, PredictorsResponse{Kinds: sim.Kinds(), Usage: sim.Usage()})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	// Registry workloads first, then the synthetic characterization
	// catalog; any other "syn:..." point resolves by name in sweeps
	// even though only the catalog grid is listed.
	ws := append(workload.All(), workload.Synthetics()...)
	out := make([]WorkloadJSON, len(ws))
	for i, wl := range ws {
		out[i] = WorkloadJSON{Name: wl.Name, Description: wl.Description}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetricsPage renders the registry. Renders are serialized so each
// sweeps the shards for its H2P ranking exactly once; the page is built
// in memory so a slow reader does not hold up the next scrape.
func (s *Server) handleMetricsPage(w http.ResponseWriter, _ *http.Request) {
	var page bytes.Buffer
	s.scrapeMu.Lock()
	s.h2p = s.mgr.H2PTop(h2pTopK)
	s.tel.reg.Render(&page)
	s.scrapeMu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write(page.Bytes())
}

// sweepChunk is how many events a sweep evaluation feeds between
// context checks.
const sweepChunk = 4096

// evaluateCtx is core.Evaluate in sweepChunk-event batches, checking ctx
// before each one, so a cancelled sweep (timeout or client disconnect)
// stops mid-trace instead of finishing the whole trace first.
func evaluateCtx(ctx context.Context, tr *trace.Trace, cfg core.EvalConfig) (core.Metrics, error) {
	e := core.NewEvaluator(cfg)
	for evs := tr.Events; len(evs) > 0; {
		if err := ctx.Err(); err != nil {
			return core.Metrics{}, err
		}
		n := min(len(evs), sweepChunk)
		e.FeedBatch(evs[:n])
		evs = evs[n:]
	}
	e.AddInsts(tr.Insts)
	return e.Metrics(), nil
}
