package core

import (
	"fmt"

	"repro/internal/trace"
)

// PGUPolicy selects which predicate defines the predicate global update
// mechanism inserts into the global branch history.
type PGUPolicy int

// Policies, from none to most aggressive.
const (
	// PGUOff inserts nothing: the predictor sees only branch outcomes.
	PGUOff PGUPolicy = iota
	// PGURegionGuards inserts defines that (statically) feed the guard of
	// a region-based branch — the minimal set the paper's region-based
	// branches can correlate with.
	PGURegionGuards
	// PGUBranchGuards inserts defines feeding any branch guard.
	PGUBranchGuards
	// PGUAll inserts every executed predicate define. If-conversion turned
	// branches into compares; this policy puts all of their outcomes back
	// into the history, the paper's headline mechanism.
	PGUAll
)

// String implements fmt.Stringer.
func (p PGUPolicy) String() string {
	switch p {
	case PGUOff:
		return "off"
	case PGURegionGuards:
		return "region-guards"
	case PGUBranchGuards:
		return "branch-guards"
	case PGUAll:
		return "all"
	}
	return fmt.Sprintf("pgu(%d)", int(p))
}

// ParsePGUPolicy reads the command-line/API spelling of a policy: "off"
// (or empty), "region", "branch", "all". The String() forms are also
// accepted, so Parse(p.String()) round-trips.
func ParsePGUPolicy(s string) (PGUPolicy, error) {
	switch s {
	case "", "off":
		return PGUOff, nil
	case "region", "region-guards":
		return PGURegionGuards, nil
	case "branch", "branch-guards":
		return PGUBranchGuards, nil
	case "all":
		return PGUAll, nil
	}
	return PGUOff, fmt.Errorf("core: unknown PGU policy %q (off, region, branch, all)", s)
}

// Selects reports whether the policy inserts this predicate-define event.
func (p PGUPolicy) Selects(ev *trace.Event) bool {
	return ev.Kind == trace.KindPredDef && p.SelectsDefine(ev.FeedsBranch(), ev.FeedsRegionBranch())
}

// SelectsDefine reports whether the policy inserts a compare by its
// static class: whether a destination guards some branch (feedsBranch)
// or some region branch (feedsRegion). It is the one selection rule of
// the mechanism: the trace evaluator applies it through Selects, the
// timing model to the recording's static table.
func (p PGUPolicy) SelectsDefine(feedsBranch, feedsRegion bool) bool {
	switch p {
	case PGURegionGuards:
		return feedsRegion
	case PGUBranchGuards:
		return feedsBranch
	case PGUAll:
		return true
	}
	return false
}
