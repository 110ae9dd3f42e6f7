package telemetry

import (
	"strings"
	"testing"
)

func parseErr(t *testing.T, page string) error {
	t.Helper()
	_, err := ParseText(strings.NewReader(page))
	return err
}

func TestParseTextAccepts(t *testing.T) {
	page := `# HELP a_total Things.
# TYPE a_total counter
a_total 3
# HELP b_seconds Lat.
# TYPE b_seconds histogram
b_seconds_bucket{le="0.1"} 1
b_seconds_bucket{le="+Inf"} 2
b_seconds_sum 1.5
b_seconds_count 2
# HELP g Gauge with no samples is fine.
# TYPE g gauge
`
	fams, err := ParseText(strings.NewReader(page))
	if err != nil {
		t.Fatalf("valid page rejected: %v", err)
	}
	if len(fams) != 3 {
		t.Fatalf("got %d families, want 3", len(fams))
	}
	if fams[0].Name != "a_total" || fams[0].Type != "counter" || fams[0].Help != "Things." {
		t.Errorf("family 0 = %+v", fams[0])
	}
	if n := len(fams[1].Samples); n != 4 {
		t.Errorf("histogram has %d samples, want 4", n)
	}
	if s := fams[1].Sample("b_seconds_bucket", map[string]string{"le": "0.1"}); s == nil || s.Value != 1 {
		t.Errorf("bucket lookup failed: %+v", s)
	}
}

func TestParseTextRejects(t *testing.T) {
	cases := []struct {
		name string
		page string
		want string // substring of the error
	}{
		{"series before HELP", "a_total 1\n", "no preceding HELP"},
		{"TYPE before HELP", "# TYPE a_total counter\n", "before its HELP"},
		{"series before TYPE", "# HELP a_total x\na_total 1\n", "before its TYPE"},
		{"HELP without TYPE", "# HELP a_total x\n", "no TYPE"},
		{"duplicate HELP", "# HELP a x\n# TYPE a counter\na 1\n# HELP a x\n", "duplicate HELP"},
		{"duplicate TYPE", "# HELP a x\n# TYPE a counter\n# TYPE a counter\n", "duplicate TYPE"},
		{"TYPE after series", "# HELP a x\n# TYPE a counter\na 1\n# HELP b y\n# TYPE a counter\n", "duplicate TYPE"},
		{"unknown type", "# HELP a x\n# TYPE a ring\n", "unknown TYPE"},
		{"duplicate series", "# HELP a x\n# TYPE a counter\na 1\na 2\n", "duplicate series"},
		{"duplicate labeled series", "# HELP a x\n# TYPE a counter\na{l=\"v\"} 1\na{l=\"v\"} 2\n", "duplicate series"},
		{"bad metric name", "# HELP 0a x\n# TYPE 0a counter\n", "invalid metric name"},
		{"bad label name", "# HELP a x\n# TYPE a counter\na{0l=\"v\"} 1\n", "invalid label name"},
		{"unquoted label", "# HELP a x\n# TYPE a counter\na{l=v} 1\n", "not quoted"},
		{"bad escape", `# HELP a x` + "\n# TYPE a counter\na{l=\"\\q\"} 1\n", "invalid escape"},
		{"unterminated value", "# HELP a x\n# TYPE a counter\na{l=\"v 1\n", "unterminated"},
		{"repeated label", "# HELP a x\n# TYPE a counter\na{l=\"1\",l=\"2\"} 1\n", "repeats label"},
		{"bad value", "# HELP a x\n# TYPE a counter\na pony\n", "bad value"},
		{"timestamp", "# HELP a x\n# TYPE a counter\na 1 12345\n", "one value"},
		{"stray comment", "# just a note\n", "unknown comment"},
		{"histogram no inf", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "missing +Inf"},
		{"histogram le order", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"0.5\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n", "not ascending"},
		{"histogram cum decrease", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n", "decrease"},
		{"histogram count mismatch", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n", "disagrees"},
		{"histogram missing sum", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n", "missing _sum"},
		{"histogram missing count", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n", "missing _count"},
		{"histogram bare series", "# HELP h x\n# TYPE h histogram\nh 1\n", "bare series"},
		{"bucket after inf", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_bucket{le=\"2\"} 1\nh_sum 1\nh_count 1\n", "after +Inf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := parseErr(t, tc.page)
			if err == nil {
				t.Fatalf("accepted invalid page:\n%s", tc.page)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseTextLabelValues checks escape handling round-trips through
// the parser.
func TestParseTextLabelValues(t *testing.T) {
	page := "# HELP a x\n# TYPE a gauge\n" +
		`a{l="back\\slash",m="qu\"ote",n="new\nline"} 1` + "\n"
	fams, err := ParseText(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	s := fams[0].Samples[0]
	if s.Label("l") != `back\slash` || s.Label("m") != `qu"ote` || s.Label("n") != "new\nline" {
		t.Errorf("labels did not unescape: %+v", s.Labels)
	}
	if s.Label("absent") != "" {
		t.Error("absent label not empty")
	}
}
