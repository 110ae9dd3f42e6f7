package serve

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestMetricsJSONRoundTrip(t *testing.T) {
	m := core.Metrics{
		Insts: 1000, Branches: 200, Mispredicts: 31,
		RegionBranches: 40, RegionMispredicts: 9,
		Filtered: 12, FilteredTrue: 3, FilterErrors: 1,
		PredDefs: 77, InsertedBits: 25,
		ByPC: map[uint64]*core.BranchStats{
			0x100: {PC: 0x100, Count: 50, Taken: 30, Mispredicts: 5, Filtered: 2, Region: true},
			0x108: {PC: 0x108, Count: 150, Taken: 10, Mispredicts: 26},
		},
	}
	wire := MetricsToJSON(m)
	if wire.MispredictRate != m.MispredictRate() || wire.MPKI != m.MPKI() {
		t.Error("derived rates not populated")
	}
	blob, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	var back MetricsJSON
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("metrics round trip:\n got %+v\nwant %+v", got, m)
	}

	// No ByPC map stays nil, not empty.
	m2 := core.Metrics{Branches: 1}
	got2, err := MetricsToJSON(m2).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got2.ByPC != nil {
		t.Error("nil ByPC became non-nil")
	}
}

func TestMetricsJSONBadKey(t *testing.T) {
	j := MetricsJSON{ByPC: map[string]BranchStatsJSON{"not-a-pc": {}}}
	if _, err := j.Metrics(); err == nil {
		t.Error("bad by_pc key accepted")
	}
}

func TestEvalOptionsConfig(t *testing.T) {
	cfg, err := EvalOptions{}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ResolveDelay != core.DefaultResolveDelay || cfg.PGUDelay != core.DefaultPGUDelay {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.PGU != core.PGUOff {
		t.Errorf("empty pgu = %v, want off", cfg.PGU)
	}

	rd, pd := uint64(7), uint64(9)
	cfg, err = EvalOptions{
		SFPF: true, FilterTrue: true, TrainFiltered: true, PerBranch: true,
		PGU: "region", ResolveDelay: &rd, PGUDelay: &pd,
	}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.UseSFPF || !cfg.FilterTrue || !cfg.TrainFiltered || !cfg.PerBranch {
		t.Errorf("flags not applied: %+v", cfg)
	}
	if cfg.PGU != core.PGURegionGuards || cfg.ResolveDelay != 7 || cfg.PGUDelay != 9 {
		t.Errorf("overrides not applied: %+v", cfg)
	}

	if _, err := (EvalOptions{PGU: "bogus"}).Config(); err == nil {
		t.Error("bad pgu policy accepted")
	}
}
