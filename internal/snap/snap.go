// Package snap is the durable-state subsystem: a versioned binary
// snapshot/restore format for evaluation sessions. A snapshot captures
// everything needed to resume a trace-driven evaluation byte-identically
// in another process — the predictor spec and full mechanism
// configuration, the predictor's mutable state (tables, histories,
// weights, the agree predictor's set-associative bias table), the
// evaluator's pending predicate-bit queue and accumulated metrics, and
// the serving session's counters — so predictor state becomes a movable
// artifact instead of dying with its process. The serving tier spills
// evicted sessions to disk in this format and warm-restores them on the
// next touch; the bprouter front tier migrates sessions between backends
// with it.
//
// # Format (P64S, version 1)
//
//	magic "P64S", u32 version
//	string predictor spec (canonical "kind:bits..." spelling)
//	u8 config flags (SFPF, FilterTrue, TrainFiltered, PerBranch; rest zero)
//	u8 PGU policy, u64 resolve delay, u64 PGU delay
//	string session ID, u64 events, u64 batches, u64 last batch seq
//	string config key (see Key; verified on decode)
//	bytes predictor state (length-prefixed; see bpred.Stater)
//	bytes evaluator state (length-prefixed; see core.Evaluator.AppendState)
//	u32 CRC-32 (IEEE) over every preceding byte
//
// Strings and byte sections carry u32 length prefixes; everything is
// little-endian (internal/wire). The encoding is canonical — one state,
// one byte sequence — and Decode enforces it (exact-length sections,
// canonical spec spelling, sorted per-branch stats, zero reserved bits),
// so Encode(Decode(b)) == b for every b Decode accepts. Corruption is
// detected by the checksum before any field is trusted; a snapshot from
// a future format version fails with ErrVersion so old binaries reject
// new state loudly instead of misparsing it.
//
// # Versioning rules
//
// The version number covers the whole layout: any change to field order,
// widths, or the per-kind predictor state encodings bumps it. Decoders
// accept exactly the versions they were built for — state restoration is
// exact-resume, so there is no sensible partial read of an unknown
// layout. Cross-version migration happens by draining a session through
// the old binary (finish or discard) rather than by in-place upgrade.
package snap

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Version is the current snapshot format version.
const Version = 1

var magic = [4]byte{'P', '6', '4', 'S'}

// Decode errors. ErrCorrupt covers checksum failures, truncation, and
// every non-canonical or out-of-range field; ErrVersion specifically
// marks a structurally sound header with an unsupported version, and
// ErrKeyMismatch a snapshot whose embedded config key does not match
// the key recomputed from its own spec and config (a snapshot written
// by an incompatible configuration scheme).
var (
	ErrCorrupt     = errors.New("snap: corrupt snapshot")
	ErrVersion     = errors.New("snap: unsupported snapshot version")
	ErrKeyMismatch = errors.New("snap: config key mismatch")
)

// Meta carries the serving-session counters that ride along with the
// evaluator state, so a restored session resumes its lifetime totals and
// its batch-sequence dedup point.
type Meta struct {
	// SessionID is the owning session's identifier ("" outside serving).
	SessionID string
	// Events and Batches are the session's lifetime totals.
	Events  uint64
	Batches uint64
	// LastSeq is the highest applied client batch sequence number (0 if
	// the client never supplied sequence numbers). Restoring it is what
	// keeps retried batches idempotent across an eviction or migration.
	LastSeq uint64
}

// Restored is a decoded snapshot: a freshly constructed evaluator loaded
// with the snapshotted state, ready to feed.
type Restored struct {
	Spec sim.Spec
	Meta Meta
	// Key is the snapshot's config key (already verified against the
	// decoded spec and config).
	Key  string
	Eval *core.Evaluator
}

// Key returns the short stable digest identifying a (spec, evaluation
// config) pair. Spill files are keyed on it, and Decode verifies the
// embedded key, so state can never be restored into a session shape it
// was not trained under. The Predictor field of cfg is ignored.
func Key(spec sim.Spec, cfg core.EvalConfig) string {
	return digest(struct {
		Spec          string
		UseSFPF       bool
		FilterTrue    bool
		TrainFiltered bool
		ResolveDelay  uint64
		PGU           int
		PGUDelay      uint64
		PerBranch     bool
	}{
		Spec:          spec.String(),
		UseSFPF:       cfg.UseSFPF,
		FilterTrue:    cfg.FilterTrue,
		TrainFiltered: cfg.TrainFiltered,
		ResolveDelay:  cfg.ResolveDelay,
		PGU:           int(cfg.PGU),
		PGUDelay:      cfg.PGUDelay,
		PerBranch:     cfg.PerBranch,
	})
}

// digest returns a short stable digest of v's JSON encoding: the first
// eight bytes of its SHA-256, hex-encoded. encoding/json writes struct
// fields in declaration order, so the digest is deterministic for a
// given value, and spill-file names and embedded keys depend on it
// staying so. v must be JSON-encodable; digest panics otherwise.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("snap: unhashable config: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Config-flag bits.
const (
	cfgSFPF = 1 << iota
	cfgFilterTrue
	cfgTrainFiltered
	cfgPerBranch
	cfgReservedMask = ^byte(cfgSFPF | cfgFilterTrue | cfgTrainFiltered | cfgPerBranch)
)

// Encode serializes the evaluator bound to spec, with the session meta,
// into a self-contained snapshot. The evaluator's predictor must be a
// registry-built kind (every kind sim.Spec.New constructs qualifies);
// the evaluator itself is only read.
func Encode(spec sim.Spec, e *core.Evaluator, meta Meta) ([]byte, error) {
	nspec, err := spec.Normalized()
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	st, ok := e.Predictor().(bpred.Stater)
	if !ok {
		return nil, fmt.Errorf("snap: predictor %T does not support state snapshots", e.Predictor())
	}
	cfg := e.Config()

	buf := append([]byte(nil), magic[:]...)
	buf = wire.AppendU32(buf, Version)
	buf = wire.AppendString(buf, nspec.String())
	var flags byte
	for _, f := range []struct {
		bit byte
		on  bool
	}{
		{cfgSFPF, cfg.UseSFPF},
		{cfgFilterTrue, cfg.FilterTrue},
		{cfgTrainFiltered, cfg.TrainFiltered},
		{cfgPerBranch, cfg.PerBranch},
	} {
		if f.on {
			flags |= f.bit
		}
	}
	buf = wire.AppendU8(buf, flags)
	buf = wire.AppendU8(buf, uint8(cfg.PGU))
	buf = wire.AppendU64(buf, cfg.ResolveDelay)
	buf = wire.AppendU64(buf, cfg.PGUDelay)
	buf = wire.AppendString(buf, meta.SessionID)
	buf = wire.AppendU64(buf, meta.Events)
	buf = wire.AppendU64(buf, meta.Batches)
	buf = wire.AppendU64(buf, meta.LastSeq)
	buf = wire.AppendString(buf, Key(nspec, cfg))
	buf = wire.AppendSized(buf, st.AppendState)
	buf = wire.AppendSized(buf, e.AppendState)
	buf = wire.AppendU32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// Decode parses, validates, and restores a snapshot: checksum and
// version first, then the spec and configuration, then a freshly
// constructed predictor and evaluator loaded with the snapshotted state.
// Any deviation from the canonical encoding fails with ErrCorrupt (or
// ErrVersion / ErrKeyMismatch); arbitrary input bytes can never panic or
// restore partial state.
func Decode(data []byte) (*Restored, error) {
	if len(data) < len(magic)+4+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any snapshot", ErrCorrupt, len(data))
	}
	body, sum := data[:len(data)-4], data[len(data)-4:]
	c := wire.NewCursor(body)
	if m := c.Take(4); m == nil || string(m) != string(magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := c.U32(); v != Version {
		return nil, fmt.Errorf("%w: snapshot version %d, this binary reads %d", ErrVersion, v, Version)
	}
	// Checksum before trusting any variable-length field.
	want := wire.NewCursor(sum).U32()
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}

	specText := c.String()
	flags := c.U8()
	policy := c.U8()
	cfg := core.EvalConfig{
		UseSFPF:       flags&cfgSFPF != 0,
		FilterTrue:    flags&cfgFilterTrue != 0,
		TrainFiltered: flags&cfgTrainFiltered != 0,
		PerBranch:     flags&cfgPerBranch != 0,
		ResolveDelay:  c.U64(),
		PGUDelay:      c.U64(),
	}
	meta := Meta{
		SessionID: c.String(),
		Events:    c.U64(),
		Batches:   c.U64(),
		LastSeq:   c.U64(),
	}
	key := c.String()
	pstate := c.Bytes()
	estate := c.Bytes()
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if flags&cfgReservedMask != 0 {
		return nil, fmt.Errorf("%w: reserved config flag bits set", ErrCorrupt)
	}
	if policy > uint8(core.PGUAll) {
		return nil, fmt.Errorf("%w: unknown PGU policy %d", ErrCorrupt, policy)
	}
	cfg.PGU = core.PGUPolicy(policy)

	spec, err := sim.Parse(specText)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if spec.String() != specText {
		return nil, fmt.Errorf("%w: non-canonical spec %q (want %q)", ErrCorrupt, specText, spec.String())
	}
	if wantKey := Key(spec, cfg); key != wantKey {
		return nil, fmt.Errorf("%w: snapshot key %s, config computes %s", ErrKeyMismatch, key, wantKey)
	}

	cfg.Predictor, err = spec.New()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	eval := core.NewEvaluator(cfg)
	pc := wire.NewCursor(pstate)
	if err := cfg.Predictor.(bpred.Stater).LoadState(pc); err != nil {
		return nil, fmt.Errorf("%w: predictor state: %v", ErrCorrupt, err)
	}
	if err := pc.Done(); err != nil {
		return nil, fmt.Errorf("%w: predictor state: %v", ErrCorrupt, err)
	}
	ec := wire.NewCursor(estate)
	if err := eval.LoadState(ec); err != nil {
		return nil, fmt.Errorf("%w: evaluator state: %v", ErrCorrupt, err)
	}
	if err := ec.Done(); err != nil {
		return nil, fmt.Errorf("%w: evaluator state: %v", ErrCorrupt, err)
	}
	return &Restored{Spec: spec, Meta: meta, Key: key, Eval: eval}, nil
}
