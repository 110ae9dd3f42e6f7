package stats

import (
	"encoding/csv"
	"math"
	"strings"
	"testing"
)

func sample() *Table {
	t := NewTable("demo", "name", "value")
	t.AddRow("alpha", "1")
	t.AddRow("beta", "22")
	t.Notes = append(t.Notes, "a note with 42")
	return t
}

func TestTableString(t *testing.T) {
	s := sample().String()
	for _, want := range []string{"demo", "name", "alpha", "22", "note: a note with 42"} {
		if !strings.Contains(s, want) {
			t.Errorf("text output missing %q:\n%s", want, s)
		}
	}
	// Alignment: both data rows should put the value column at the same
	// offset.
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	var alphaLine, betaLine string
	for _, l := range lines {
		if strings.HasPrefix(l, "alpha") {
			alphaLine = l
		}
		if strings.HasPrefix(l, "beta") {
			betaLine = l
		}
	}
	if strings.Index(alphaLine, "1") != strings.Index(betaLine, "22") {
		t.Errorf("columns not aligned:\n%s", s)
	}
}

func TestTableMarkdown(t *testing.T) {
	md := sample().Markdown()
	for _, want := range []string{"**demo**", "| name | value |", "| --- | --- |", "| beta | 22 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow(`x,y`, `say "hi"`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"say ""hi"""`) {
		t.Errorf("CSV quoting wrong:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
}

// TestTableCSVRFC4180 pins the full quoting rule: cells containing a
// comma, quote, CR, or LF are quoted; everything else passes through
// bare. encoding/csv must be able to read the output back unchanged.
func TestTableCSVRFC4180(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("line\nbreak", "cr\rreturn")
	tb.AddRow("plain", "12.3%")
	out := tb.CSV()
	if !strings.Contains(out, "\"line\nbreak\"") {
		t.Errorf("LF cell not quoted:\n%q", out)
	}
	if !strings.Contains(out, "\"cr\rreturn\"") {
		t.Errorf("CR cell not quoted:\n%q", out)
	}
	if !strings.Contains(out, "plain,12.3%") {
		t.Errorf("bare cells were quoted:\n%q", out)
	}

	r := csv.NewReader(strings.NewReader(out))
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV is not readable by encoding/csv: %v", err)
	}
	if len(recs) != 3 || recs[1][0] != "line\nbreak" || recs[1][1] != "cr\rreturn" {
		t.Errorf("round-trip mismatch: %q", recs)
	}
}

func TestAddRowPads(t *testing.T) {
	tb := NewTable("t", "a", "b", "c")
	tb.AddRow("only")
	if len(tb.Rows[0]) != 3 || tb.Rows[0][1] != "" {
		t.Errorf("row not padded: %v", tb.Rows[0])
	}
	tb.AddRow("1", "2", "3", "4") // extra cell dropped
	if len(tb.Rows[1]) != 3 {
		t.Errorf("row not truncated: %v", tb.Rows[1])
	}
}

func TestFormatters(t *testing.T) {
	if got := Pct(0.1234); got != "12.3%" {
		t.Errorf("Pct = %q", got)
	}
	if got := F2(1.005); got != "1.00" && got != "1.01" {
		t.Errorf("F2 = %q", got)
	}
	if got := F3(0.12349); got != "0.123" {
		t.Errorf("F3 = %q", got)
	}
	if got := N(42); got != "42" {
		t.Errorf("N = %q", got)
	}
	if got := N(uint64(7)); got != "7" {
		t.Errorf("N uint64 = %q", got)
	}
	if got := Ratio(3, 2); got != "1.50x" {
		t.Errorf("Ratio = %q", got)
	}
	if got := Ratio(1, 0); got != "-" {
		t.Errorf("Ratio zero = %q", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("Geomean(2,8) = %f", got)
	}
	if got := Geomean(nil); got != 0 {
		t.Errorf("Geomean(nil) = %f", got)
	}
	// Zeros are floored, not fatal.
	if got := Geomean([]float64{0, 1}); got <= 0 || math.IsNaN(got) {
		t.Errorf("Geomean with zero = %f", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %f", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %f", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 20, 30} // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {-5, 10}, {200, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(xs, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("Percentile(single, 99) = %v, want 7", got)
	}
	if xs[0] != 40 {
		t.Error("Percentile mutated its input")
	}
}
