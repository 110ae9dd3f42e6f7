package sim

import (
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"gshare:12:8", "gshare:12:8"},
		{"gshare", "gshare:12:8"},    // defaults fill in
		{"gshare:10", "gshare:10:8"}, // partial defaults
		{" gshare:10:4 ", "gshare:10:4"},
		{"bimodal", "bimodal:12"},
		{"bimodal:6", "bimodal:6"},
		{"gselect", "gselect:12:6"},
		{"gag", "gag:12"},
		{"gag:10", "gag:10"},
		{"local", "local:8:10:12"},
		{"local:6:8:10", "local:6:8:10"},
		{"tournament", "tournament:12:8"},
		{"agree:12:8", "agree:12:8"},
		{"perceptron", "perceptron:8:24"},
		{"taken", "taken"},
		{"nottaken", "nottaken"},
	}
	for _, c := range cases {
		s, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := s.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// The canonical spelling must parse back to the same spec.
		s2, err := Parse(s.String())
		if err != nil {
			t.Errorf("Parse(%q): %v", s.String(), err)
			continue
		}
		if s2.String() != s.String() {
			t.Errorf("round trip drifted: %q -> %q", s.String(), s2.String())
		}
	}
}

func TestParseRejects(t *testing.T) {
	cases := []string{
		"",                 // no kind
		"nope",             // unknown kind
		"gshare:12:8:4",    // too many parameters
		"gshare:x",         // malformed bits
		"gshare:12:",       // empty bits field
		"gshare:0",         // below range
		"gshare:-3",        // negative
		"gshare:29",        // above range
		"bimodal:12:8",     // bimodal takes one parameter
		"taken:1",          // static kinds take none
		"tournament:1",     // below tournament's minimum chooser size
		"local:8:10:10:10", // too many
	}
	for _, c := range cases {
		if s, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) accepted as %v", c, s)
		}
	}
}

func TestNewRejectsInvalidSpecs(t *testing.T) {
	for _, s := range []Spec{
		{Kind: "nope"},
		{},
		{Kind: "gshare", TableBits: 40},
		{Kind: "gshare", TableBits: -1},
		For("tournament", 1),
	} {
		if p, err := s.New(); err == nil {
			t.Errorf("Spec%+v.New() built %s", s, p.Name())
		}
	}
}

// TestEveryKindConstructs exercises the whole registry: each kind's
// default spec must construct a predictor that predicts, trains, and
// resets without blowing up, and whose Name is non-empty.
func TestEveryKindConstructs(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			s, err := Parse(kind)
			if err != nil {
				t.Fatalf("Parse(%q): %v", kind, err)
			}
			p, err := s.New()
			if err != nil {
				t.Fatalf("New(%v): %v", s, err)
			}
			if p.Name() == "" {
				t.Error("empty predictor name")
			}
			// Drive it: a short taken/not-taken pattern must not panic and
			// must leave the predictor returning some prediction.
			for i := 0; i < 64; i++ {
				pc := uint64(i % 7)
				p.PredictUpdate(pc, i%3 == 0)
			}
			p.Reset()
			_ = p.Predict(0)

			// A second instance from the same spec must be independent
			// state (fresh tables), i.e. construction is a factory, not a
			// singleton.
			q := s.MustNew()
			if q == p {
				t.Error("MustNew returned a shared instance")
			}
		})
	}
}

func TestForPositionalParams(t *testing.T) {
	if got := For("gshare", 10).String(); got != "gshare:10:8" {
		t.Errorf("For(gshare,10) = %s", got)
	}
	if got := For("local", 6, 8, 10).String(); got != "local:6:8:10" {
		t.Errorf("For(local,6,8,10) = %s", got)
	}
	if got := For("gag", 9).String(); got != "gag:9" {
		t.Errorf("For(gag,9) = %s", got)
	}
	// Extra positional params beyond the kind's arity are ignored rather
	// than corrupting unrelated fields.
	if got := For("bimodal", 6, 99).String(); got != "bimodal:6" {
		t.Errorf("For(bimodal,6,99) = %s", got)
	}
}

func TestNewPredictorText(t *testing.T) {
	p, err := NewPredictor("gshare:10:4")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "gshare-10.4" {
		t.Errorf("Name = %s", p.Name())
	}
	if _, err := NewPredictor("bogus"); err == nil {
		t.Error("bogus spec accepted")
	}
}

func TestUsageMentionsEveryKind(t *testing.T) {
	u := Usage()
	for _, k := range Kinds() {
		if !strings.Contains(u, k) {
			t.Errorf("Usage() missing %s: %s", k, u)
		}
	}
}

// TestParseErrorMessages pins down what each failure mode tells the user:
// the message must name the offending kind or parameter, so a CLI typo is
// diagnosable from the error alone.
func TestParseErrorMessages(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"nope", `unknown predictor kind "nope"`},
		{"nope", "want agree, bimodal"}, // the known kinds are listed
		{"", "unknown predictor kind"},
		{"gshare:x", `bad gshare table bits "x"`},
		{"gshare:12:y", `bad gshare hist bits "y"`},
		{"gshare:12:", "bad gshare hist bits"},
		{"gshare:29", "table bits 29 out of range [1,28]"},
		{"gshare:0", "table bits 0 out of range"},
		{"gshare:-3", "out of range"},
		{"tournament:1", "table bits 1 out of range [2,28]"},
		{"gshare:12:8:4", "gshare takes at most 2 parameters"},
		{"taken:1", "taken takes at most 0 parameters"},
		{"local:8:10:10:10", "local takes at most 3 parameters"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q) succeeded", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error %q does not mention %q", c.in, err, c.want)
		}
	}
}
