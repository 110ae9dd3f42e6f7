package buildinfo

import (
	"flag"
	"runtime/debug"
	"strings"
	"testing"
)

func TestVersionNonEmpty(t *testing.T) {
	if Version() == "" {
		t.Fatal("empty version")
	}
}

func TestString(t *testing.T) {
	s := String("mytool")
	if !strings.HasPrefix(s, "mytool ") {
		t.Errorf("String = %q, want mytool prefix", s)
	}
	if !strings.Contains(s, "go1") {
		t.Errorf("String = %q, want go runtime version", s)
	}
}

func TestFlag(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	v := Flag(fs)
	if err := fs.Parse([]string{"-version"}); err != nil {
		t.Fatal(err)
	}
	if !*v {
		t.Error("flag not set after -version")
	}
}

func TestDescribe(t *testing.T) {
	const full = "0123456789abcdef0123456789abcdef01234567"
	rev := debug.BuildSetting{Key: "vcs.revision", Value: full}
	dirty := debug.BuildSetting{Key: "vcs.modified", Value: "true"}
	clean := debug.BuildSetting{Key: "vcs.modified", Value: "false"}
	other := debug.BuildSetting{Key: "GOARCH", Value: "amd64"}
	for _, c := range []struct {
		name          string
		ok            bool
		main          string
		settings      []debug.BuildSetting
		version, revn string
	}{
		{"no build info", false, "", nil, "devel", "unknown"},
		{"no vcs", true, "(devel)", []debug.BuildSetting{other}, "devel", "unknown"},
		{"clean", true, "(devel)", []debug.BuildSetting{other, rev, clean}, full[:12], full},
		{"dirty", true, "", []debug.BuildSetting{dirty, rev}, full[:12] + "+dirty", full + "+dirty"},
		{"dirty without revision", true, "", []debug.BuildSetting{dirty}, "devel", "unknown"},
		{"short revision", true, "", []debug.BuildSetting{{Key: "vcs.revision", Value: "abc"}}, "abc", "abc"},
		{"module version", true, "v1.2.3", []debug.BuildSetting{rev, dirty}, "v1.2.3", full + "+dirty"},
		{"module version without vcs", true, "v1.2.3", nil, "v1.2.3", "unknown"},
	} {
		bi := &debug.BuildInfo{Main: debug.Module{Version: c.main}, Settings: c.settings}
		v, r := describe(bi, c.ok)
		if v != c.version || r != c.revn {
			t.Errorf("%s: describe = (%q, %q), want (%q, %q)", c.name, v, r, c.version, c.revn)
		}
	}
}
