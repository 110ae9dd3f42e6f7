package workload

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/ifconv"
	"repro/internal/testutil"
	"repro/internal/trace"
)

const runLimit = 3_000_000

func TestRegistry(t *testing.T) {
	ws := All()
	if len(ws) < 10 {
		t.Fatalf("only %d workloads registered", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w.Name] {
			t.Errorf("duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
		if w.Description == "" {
			t.Errorf("workload %q has no description", w.Name)
		}
	}
	if _, err := ByName("sort"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("no-such"); err == nil {
		t.Error("ByName accepted unknown name")
	}
}

func TestAllWorkloadsRunAndHalt(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := w.Build()
			res, err := emu.RunProgram(p, runLimit)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if res.ExitCode != 0 {
				t.Errorf("%s exited %d", w.Name, res.ExitCode)
			}
			if len(res.Output) == 0 {
				t.Errorf("%s produced no output", w.Name)
			}
			if res.Steps < 5000 {
				t.Errorf("%s too small: %d dynamic instructions", w.Name, res.Steps)
			}
		})
	}
}

func TestBuildIsDeterministic(t *testing.T) {
	for _, w := range All() {
		a, b := w.Build(), w.Build()
		ra, err := emu.RunProgram(a, runLimit)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := emu.RunProgram(b, runLimit)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Steps != rb.Steps || len(ra.Output) != len(rb.Output) {
			t.Errorf("%s not deterministic", w.Name)
		}
		for i := range ra.Output {
			if ra.Output[i] != rb.Output[i] {
				t.Errorf("%s output differs at %d", w.Name, i)
			}
		}
	}
}

func TestAllWorkloadsConvertEquivalently(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := w.Build()
			cp, rep, err := ifconv.Convert(p, ifconv.Config{})
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if err := testutil.CheckEquivalent(p, cp, runLimit); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			t.Logf("%s: %d regions, %d eliminated, %d region branches",
				w.Name, len(rep.Regions), rep.TotalEliminated(), rep.TotalRegionBranches())
		})
	}
}

func TestSuiteConversionReducesDynamicBranches(t *testing.T) {
	// Across the whole suite, if-conversion must remove a substantial
	// fraction of dynamic conditional branches — table-1 territory.
	var before, after uint64
	anyRegion := false
	for _, w := range All() {
		p := w.Build()
		cp, _, err := ifconv.Convert(p, ifconv.Config{})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := trace.Collect(p, runLimit)
		if err != nil {
			t.Fatal(err)
		}
		ta, err := trace.Collect(cp, runLimit)
		if err != nil {
			t.Fatal(err)
		}
		before += tb.Branches
		after += ta.Branches
		if ta.RegionBranches > 0 {
			anyRegion = true
		}
	}
	if after >= before {
		t.Errorf("dynamic branches did not drop: %d -> %d", before, after)
	}
	if float64(after) > 0.9*float64(before) {
		t.Errorf("too little conversion: %d -> %d", before, after)
	}
	if !anyRegion {
		t.Error("no workload produced region-based branches")
	}
}

func TestCorrWorkloadKeepsCorrelatedBranch(t *testing.T) {
	w, err := ByName("corr")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	cp, rep, err := ifconv.Convert(p, ifconv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalEliminated() == 0 {
		t.Fatalf("corr: first diamond not converted: %v", rep.Rejected)
	}
	tr, err := trace.Collect(cp, runLimit)
	if err != nil {
		t.Fatal(err)
	}
	// The correlated branch must survive conversion: the converted trace
	// still needs thousands of conditional branches.
	if tr.Branches < 4000 {
		t.Errorf("corr: surviving branches = %d", tr.Branches)
	}
}

func TestSynthTerminates(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		p := Synth(seed, 80)
		res, err := emu.RunProgram(p, runLimit)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.ExitCode != 0 {
			t.Errorf("seed %d exited %d", seed, res.ExitCode)
		}
	}
}

func TestSynthDeterministic(t *testing.T) {
	a := Synth(5, 50)
	b := Synth(5, 50)
	if len(a.Insts) != len(b.Insts) {
		t.Fatal("synth not deterministic")
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("synth differs at instruction %d", i)
		}
	}
}

func TestDemosRun(t *testing.T) {
	fp := FalsePathDemo(500, 8, 1)
	if _, err := emu.RunProgram(fp, runLimit); err != nil {
		t.Fatal(err)
	}
	cd := CorrelatedDemo(500, 1)
	if _, err := emu.RunProgram(cd, runLimit); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(fp, runLimit)
	if err != nil {
		t.Fatal(err)
	}
	if tr.RegionBranches == 0 {
		t.Error("false-path demo has no region branches")
	}
}
