package pipeline

import (
	"testing"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/ifconv"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/workload"
)

// divZeroProgram runs a short branchy loop, loads a zero from memory and
// divides by it: the faulting divide stalls on the load first, so the
// partial statistics include fetch-side work of the faulting step.
func divZeroProgram() *prog.Program {
	b := prog.NewBuilder("divzero")
	b.Movi(1, 6)
	b.CountedLoop(5, 7, func() {
		b.If(prog.RI(isa.CmpLT, 1, 4), func() { b.Addi(1, 1, 3) })
		b.Subi(1, 1, 1)
	})
	b.Movi(6, 900)
	b.Ld(2, 6, 0)
	b.Div(3, 1, 2)
	b.Halt(0)
	return b.MustProgram()
}

// TestRunErrorPaths pins what Run returns when a run stops early: the
// statistics accumulated up to the stop, and the exact error text, for
// an instruction-limit stop mid-run and for an emulator fault.
func TestRunErrorPaths(t *testing.T) {
	corr, _, err := ifconv.Convert(workload.ByNameMust("corr").Build(), ifconv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		p       *prog.Program
		pgu     core.PGUPolicy
		limit   uint64
		want    Stats
		wantErr string
	}{
		{
			name: "limit/filtered", p: corr, pgu: core.PGURegionGuards, limit: 7000,
			want: Stats{Insts: 7000, Nullified: 818, Stalls: 872, Branches: 1252, Mispredicts: 12,
				RegionBranches: 435, Filtered: 191, FilteredTrue: 244, InsertedBits: 435},
			wantErr: "pipeline: emu: instruction limit exceeded (7000 steps in corr.ifc)",
		},
		{
			name: "limit/returns", p: workload.ByNameMust("queens").Build(), pgu: core.PGURegionGuards, limit: 5000,
			want: Stats{Insts: 5000, Nullified: 381, Stalls: 1228, Branches: 947, Mispredicts: 336,
				IndirectBranches: 48},
			wantErr: "pipeline: emu: instruction limit exceeded (5000 steps in queens)",
		},
		{
			name: "fault/divzero", p: divZeroProgram(), pgu: core.PGUAll,
			want:    Stats{Insts: 34, Nullified: 2, Stalls: 2, Branches: 14, Mispredicts: 12, InsertedBits: 7},
			wantErr: `emu: division by zero at divzero[9] "div r3 = r1, r2"`,
		},
	}
	for _, c := range cases {
		cfg := DefaultConfig(bpred.NewGShare(12, 8))
		cfg.UseSFPF, cfg.FilterTrue, cfg.PGU = true, true, c.pgu
		st, err := Run(c.p, cfg, c.limit)
		if err == nil || err.Error() != c.wantErr {
			t.Errorf("%s: error %v, want %q", c.name, err, c.wantErr)
		}
		if st != c.want {
			t.Errorf("%s: partial stats\n got %+v\nwant %+v", c.name, st, c.want)
		}
	}
}
