package workload

import (
	"fmt"
	"sort"

	"repro/internal/charz"
	"repro/internal/prog"
)

// Workload is a named deterministic benchmark program. Each is a
// behavioural stand-in for one of the compiled SPEC-era benchmarks the
// paper measured: together they span heavily-biased to near-random branch
// behaviour and weak to strong cross-condition correlation.
type Workload struct {
	Name        string
	Description string
	// Build constructs the (branching, unpredicated) program. Each call
	// returns a fresh, identical program.
	Build func() *prog.Program
}

var registry []Workload

func register(w Workload) {
	registry = append(registry, w)
}

// All returns every registered workload, sorted by name.
func All() []Workload {
	out := append([]Workload(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Suite returns the standard experiment suite (currently all workloads).
func Suite() []Workload { return All() }

// ByName looks a workload up: first in the registry, then — for
// "syn:..." names — in the synthetic charz family, which generates the
// workload from the name's parameters.
func ByName(name string) (Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	if charz.IsSynthetic(name) {
		return synthetic(name)
	}
	return Workload{}, fmt.Errorf("workload: unknown workload %q", name)
}

// ByNameMust is ByName but panics on unknown names; for tests and static
// experiment definitions.
func ByNameMust(name string) Workload {
	w, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return w
}
