package serve

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
)

// Wire types for the JSON control plane: request and reply bodies of
// every endpoint except the two binary ones. Event batches travel only
// as P64T traces (internal/trace) and snapshots as P64S blobs
// (internal/snap).

// EvalOptions are the mechanism knobs of session creation; they mirror
// core.EvalConfig minus the predictor.
type EvalOptions struct {
	SFPF          bool    `json:"sfpf,omitempty"`
	FilterTrue    bool    `json:"filter_true,omitempty"`
	TrainFiltered bool    `json:"train_filtered,omitempty"`
	ResolveDelay  *uint64 `json:"resolve_delay,omitempty"` // default core.DefaultResolveDelay
	PGU           string  `json:"pgu,omitempty"`           // off | region | branch | all
	PGUDelay      *uint64 `json:"pgu_delay,omitempty"`     // default core.DefaultPGUDelay
	PerBranch     bool    `json:"per_branch,omitempty"`
}

// Config builds the evaluation config (without a predictor).
func (o EvalOptions) Config() (core.EvalConfig, error) {
	pol, err := core.ParsePGUPolicy(o.PGU)
	if err != nil {
		return core.EvalConfig{}, err
	}
	cfg := core.EvalConfig{
		UseSFPF:       o.SFPF,
		FilterTrue:    o.FilterTrue,
		TrainFiltered: o.TrainFiltered,
		ResolveDelay:  core.DefaultResolveDelay,
		PGU:           pol,
		PGUDelay:      core.DefaultPGUDelay,
		PerBranch:     o.PerBranch,
	}
	if o.ResolveDelay != nil {
		cfg.ResolveDelay = *o.ResolveDelay
	}
	if o.PGUDelay != nil {
		cfg.PGUDelay = *o.PGUDelay
	}
	return cfg, nil
}

// SessionRequest creates a session bound to one predictor spec. ID, if
// set, names the session explicitly ([A-Za-z0-9_-], at most 64 bytes;
// 409 if taken) — the bprouter supplies IDs so it can place sessions on
// its hash ring before they exist. An empty ID lets the server generate
// one.
type SessionRequest struct {
	ID   string `json:"id,omitempty"`
	Spec string `json:"spec"`
	EvalOptions
}

// SessionJSON is the wire form of SessionInfo.
type SessionJSON struct {
	ID       string       `json:"id"`
	Spec     string       `json:"spec"`
	Events   uint64       `json:"events"`
	Batches  uint64       `json:"batches"`
	LastSeq  uint64       `json:"last_seq,omitempty"`
	Created  time.Time    `json:"created"`
	LastUsed time.Time    `json:"last_used"`
	Metrics  *MetricsJSON `json:"metrics,omitempty"`
}

func sessionJSON(inf *SessionInfo, withMetrics bool) SessionJSON {
	out := SessionJSON{
		ID: inf.ID, Spec: inf.Spec,
		Events: inf.Events, Batches: inf.Batches, LastSeq: inf.LastSeq,
		Created: inf.Created, LastUsed: inf.LastUsed,
	}
	if withMetrics {
		mj := MetricsToJSON(inf.Metrics)
		out.Metrics = &mj
	}
	return out
}

// SessionList is the session listing (GET /v1/sessions); listed
// sessions carry no metrics.
type SessionList struct {
	Count    int           `json:"count"`
	Sessions []SessionJSON `json:"sessions"`
}

// BatchResponse acknowledges an accepted batch. Duplicate marks a
// retried batch that was already applied (seq at or below the session's
// high-water mark); its events were not fed again.
type BatchResponse struct {
	Events      int          `json:"events"`
	TotalEvents uint64       `json:"total_events"`
	Duplicate   bool         `json:"duplicate,omitempty"`
	Metrics     *MetricsJSON `json:"metrics,omitempty"`
}

// BranchStatsJSON is the wire form of core.BranchStats.
type BranchStatsJSON struct {
	PC          uint64 `json:"pc"`
	Count       uint64 `json:"count"`
	Taken       uint64 `json:"taken"`
	Mispredicts uint64 `json:"mispredicts"`
	Filtered    uint64 `json:"filtered"`
	Region      bool   `json:"region,omitempty"`
}

// MetricsJSON is the wire form of core.Metrics plus derived rates. The
// conversion is lossless over the counter fields: MetricsToJSON followed
// by Metrics reproduces the original struct exactly, which is what the
// serve-vs-direct oracle check relies on.
type MetricsJSON struct {
	Insts             uint64 `json:"insts"`
	Branches          uint64 `json:"branches"`
	Mispredicts       uint64 `json:"mispredicts"`
	RegionBranches    uint64 `json:"region_branches"`
	RegionMispredicts uint64 `json:"region_mispredicts"`
	Filtered          uint64 `json:"filtered"`
	FilteredTrue      uint64 `json:"filtered_true"`
	FilterErrors      uint64 `json:"filter_errors"`
	PredDefs          uint64 `json:"pred_defs"`
	InsertedBits      uint64 `json:"inserted_bits"`

	MispredictRate float64 `json:"mispredict_rate"`
	MPKI           float64 `json:"mpki"`

	ByPC map[string]BranchStatsJSON `json:"by_pc,omitempty"`
}

// MetricsToJSON converts evaluation metrics to the wire form.
func MetricsToJSON(m core.Metrics) MetricsJSON {
	out := MetricsJSON{
		Insts: m.Insts, Branches: m.Branches, Mispredicts: m.Mispredicts,
		RegionBranches: m.RegionBranches, RegionMispredicts: m.RegionMispredicts,
		Filtered: m.Filtered, FilteredTrue: m.FilteredTrue, FilterErrors: m.FilterErrors,
		PredDefs: m.PredDefs, InsertedBits: m.InsertedBits,
		MispredictRate: m.MispredictRate(), MPKI: m.MPKI(),
	}
	if m.ByPC != nil {
		out.ByPC = make(map[string]BranchStatsJSON, len(m.ByPC))
		for pc, bs := range m.ByPC {
			out.ByPC[strconv.FormatUint(pc, 10)] = BranchStatsJSON{
				PC: bs.PC, Count: bs.Count, Taken: bs.Taken,
				Mispredicts: bs.Mispredicts, Filtered: bs.Filtered, Region: bs.Region,
			}
		}
	}
	return out
}

// Metrics converts the wire form back to core.Metrics (derived rate
// fields are recomputed by the methods on core.Metrics, not stored).
func (j MetricsJSON) Metrics() (core.Metrics, error) {
	m := core.Metrics{
		Insts: j.Insts, Branches: j.Branches, Mispredicts: j.Mispredicts,
		RegionBranches: j.RegionBranches, RegionMispredicts: j.RegionMispredicts,
		Filtered: j.Filtered, FilteredTrue: j.FilteredTrue, FilterErrors: j.FilterErrors,
		PredDefs: j.PredDefs, InsertedBits: j.InsertedBits,
	}
	if j.ByPC != nil {
		m.ByPC = make(map[uint64]*core.BranchStats, len(j.ByPC))
		for key, bs := range j.ByPC {
			pc, err := strconv.ParseUint(key, 10, 64)
			if err != nil {
				return core.Metrics{}, fmt.Errorf("bad by_pc key %q: %w", key, err)
			}
			m.ByPC[pc] = &core.BranchStats{
				PC: bs.PC, Count: bs.Count, Taken: bs.Taken,
				Mispredicts: bs.Mispredicts, Filtered: bs.Filtered, Region: bs.Region,
			}
		}
	}
	return m, nil
}

// SessionStatsJSON is the per-branch introspection report of one
// session (GET /v1/sessions/{id}/stats): aggregate totals plus the
// hardest branches ranked by misprediction count. The report covers
// only branch events (preddefs are excluded), and is empty unless the
// session was created with per_branch collection.
type SessionStatsJSON struct {
	ID             string           `json:"id"`
	Spec           string           `json:"spec"`
	Events         uint64           `json:"events"`   // lifetime events fed (branches + preddefs)
	Branches       uint64           `json:"branches"` // branch executions covered by the report
	StaticBranches int              `json:"static_branches"`
	Mispredicts    uint64           `json:"mispredicts"`
	Accuracy       float64          `json:"accuracy"`
	PerBranch      bool             `json:"per_branch"`
	Top            []BranchRankJSON `json:"top,omitempty"`
}

// BranchRankJSON is one ranked entry of the stats report. PC is
// hex-formatted ("0x401a30") for direct use against a disassembly.
type BranchRankJSON struct {
	PC             string  `json:"pc"`
	Count          uint64  `json:"count"`
	Taken          uint64  `json:"taken"`
	Mispredicts    uint64  `json:"mispredicts"`
	Filtered       uint64  `json:"filtered,omitempty"`
	Region         bool    `json:"region,omitempty"`
	MispredictRate float64 `json:"mispredict_rate"`
}

func sessionStatsJSON(inf *SessionInfo, rep core.BranchReport, perBranch bool) SessionStatsJSON {
	out := SessionStatsJSON{
		ID: inf.ID, Spec: inf.Spec, Events: inf.Events,
		Branches: rep.Events, StaticBranches: rep.StaticBranches,
		Mispredicts: rep.Mispredicts, Accuracy: rep.Accuracy(),
		PerBranch: perBranch,
		Top:       make([]BranchRankJSON, len(rep.Top)),
	}
	for i, bs := range rep.Top {
		out.Top[i] = BranchRankJSON{
			PC:    fmt.Sprintf("0x%x", bs.PC),
			Count: bs.Count, Taken: bs.Taken,
			Mispredicts: bs.Mispredicts, Filtered: bs.Filtered, Region: bs.Region,
			MispredictRate: bs.MispredictRate(),
		}
	}
	return out
}

// PredictorsResponse lists the registry's predictor kinds.
type PredictorsResponse struct {
	Kinds []string `json:"kinds"`
	Usage string   `json:"usage"`
}

// ErrorBody is the consistent error envelope every non-2xx API response
// carries.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail names the failure class and describes it. RequestID is
// the correlation ID the request carried (or was assigned), the same
// value logged by every tier that handled it.
type ErrorDetail struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}
