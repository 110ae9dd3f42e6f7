// Package buildinfo reports the version baked into a binary by the Go
// toolchain, and provides the shared -version flag every cmd/* tool
// registers so the whole suite answers version queries the same way.
package buildinfo

import (
	"flag"
	"fmt"
	"runtime"
	"runtime/debug"
)

// Version returns the best version string the build metadata offers: the
// module version when built from a tagged module, otherwise the VCS
// revision (with a +dirty suffix for modified checkouts), otherwise
// "devel".
func Version() string {
	v, _ := describe(debug.ReadBuildInfo())
	return v
}

// Revision returns the full VCS revision baked into the binary (with a
// +dirty suffix for modified checkouts), or "unknown" when the build
// carries no VCS metadata. Where Version abbreviates for humans,
// Revision stays exact — it labels the build_info metric so a scrape
// pins the running binary to a commit.
func Revision() string {
	_, r := describe(debug.ReadBuildInfo())
	return r
}

// describe derives Version's and Revision's answers from build
// metadata (ok is false when the binary carries none). It walks the
// VCS settings once for both.
func describe(bi *debug.BuildInfo, ok bool) (version, revision string) {
	if !ok {
		return "devel", "unknown"
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	version, revision = "devel", "unknown"
	if rev != "" {
		version, revision = rev[:min(len(rev), 12)]+dirty, rev+dirty
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		version = v
	}
	return version, revision
}

// String renders the one-line -version output for a named tool.
func String(tool string) string {
	return fmt.Sprintf("%s %s %s %s/%s", tool, Version(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// Flag registers the standard -version flag on a tool's flag set and
// returns the value to check after parsing.
func Flag(fs *flag.FlagSet) *bool {
	return fs.Bool("version", false, "print version and exit")
}
