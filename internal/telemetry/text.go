package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the read side of the exposition format: a strict parser
// used both as a lint gate (every bpservd/bprouter scrape must pass it
// in tests and in the CI cluster smoke) and as bptop's scrape decoder.
// Strictness is the point — the renderer and parser are written against
// the same rules, so any drift between them fails loudly.

// Label is one name="value" pair, in series order.
type Label struct {
	Name, Value string
}

// Sample is one parsed series line.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label returns the value of the named label ("" if absent).
func (s *Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Family is one parsed metric family with its samples in input order.
// Histogram families include their _bucket/_sum/_count samples.
type Family struct {
	Name, Help, Type string
	Samples          []Sample
}

// Sample returns the first sample with the exact series name and the
// given label constraints (nil if none).
func (f *Family) Sample(name string, labels map[string]string) *Sample {
	for i := range f.Samples {
		s := &f.Samples[i]
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range labels {
			if s.Label(k) != v {
				ok = false
				break
			}
		}
		if ok {
			return s
		}
	}
	return nil
}

// ParseText parses and lints a Prometheus text exposition page. It
// enforces the contract the telemetry renderer promises:
//
//   - every series belongs to a family declared by a HELP line followed
//     by a TYPE line before any of its series;
//   - no family is declared twice and no series repeats a label set;
//   - metric and label names are well-formed, label values are quoted
//     with valid escapes, values parse as floats, no timestamps;
//   - histogram families have, per label set, monotone cumulative
//     bucket counts over ascending le values ending in +Inf, with a
//     _count equal to the +Inf bucket and a _sum present.
//
// Families are returned in input order.
func ParseText(r io.Reader) ([]Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)

	byName := map[string]*Family{}
	var order []*Family
	seenSeries := map[string]bool{}
	lineNo := 0
	fail := func(format string, args ...any) error {
		return fmt.Errorf("exposition line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseComment(line)
			if err != nil {
				return nil, fail("%v", err)
			}
			switch kind {
			case "HELP":
				if byName[name] != nil {
					return nil, fail("duplicate HELP for %s", name)
				}
				f := &Family{Name: name, Help: rest}
				byName[name] = f
				order = append(order, f)
			case "TYPE":
				f := byName[name]
				if f == nil {
					return nil, fail("TYPE %s before its HELP", name)
				}
				if f.Type != "" {
					return nil, fail("duplicate TYPE for %s", name)
				}
				if len(f.Samples) > 0 {
					return nil, fail("TYPE %s after its series", name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
					f.Type = rest
				default:
					return nil, fail("unknown TYPE %q for %s", rest, name)
				}
			}
			continue
		}

		s, err := parseSample(line)
		if err != nil {
			return nil, fail("%v", err)
		}
		f := byName[s.Name]
		if f == nil {
			// Histogram component series attach to their base family.
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(s.Name, suffix); ok {
					if bf := byName[base]; bf != nil && bf.Type == "histogram" {
						f = bf
						break
					}
				}
			}
		}
		if f == nil {
			return nil, fail("series %s has no preceding HELP/TYPE", s.Name)
		}
		if f.Type == "" {
			return nil, fail("series %s before its TYPE", s.Name)
		}
		key := seriesKey(s)
		if seenSeries[key] {
			return nil, fail("duplicate series %s", key)
		}
		seenSeries[key] = true
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	for _, f := range order {
		if f.Type == "" {
			return nil, fmt.Errorf("exposition: family %s has HELP but no TYPE", f.Name)
		}
		if f.Type == "histogram" {
			if err := lintHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return copyOut(order), nil
}

func copyOut(order []*Family) []Family {
	out := make([]Family, len(order))
	for i, f := range order {
		out[i] = *f
	}
	return out
}

func parseComment(line string) (kind, name, rest string, err error) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", "", fmt.Errorf("malformed comment %q (only # HELP / # TYPE allowed)", line)
	}
	kind = fields[1]
	if kind != "HELP" && kind != "TYPE" {
		return "", "", "", fmt.Errorf("unknown comment kind %q (only HELP/TYPE allowed)", kind)
	}
	name = fields[2]
	if !validName(name) {
		return "", "", "", fmt.Errorf("invalid metric name %q", name)
	}
	if len(fields) == 4 {
		rest = fields[3]
	}
	if kind == "HELP" {
		rest = unescapeHelp(rest)
	}
	return kind, name, rest, nil
}

func unescapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\n`, "\n")
	return strings.ReplaceAll(s, `\\`, `\`)
}

// parseSample parses `name{l="v",...} value`.
func parseSample(line string) (Sample, error) {
	var s Sample
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed series %q", line)
	}
	s.Name = line[:i]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		var err error
		if s.Labels, rest, err = parseLabels(rest); err != nil {
			return s, fmt.Errorf("series %s: %w", s.Name, err)
		}
		seen := map[string]bool{}
		for _, l := range s.Labels {
			if seen[l.Name] {
				return s, fmt.Errorf("series %s repeats label %s", s.Name, l.Name)
			}
			seen[l.Name] = true
		}
	}
	rest = strings.TrimPrefix(rest, " ")
	if rest == "" || strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("series %s: expected exactly one value, got %q (timestamps are not accepted)", s.Name, rest)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("series %s: bad value %q", s.Name, rest)
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes a {name="value",...} block, returning what
// follows it.
func parseLabels(in string) ([]Label, string, error) {
	var out []Label
	i := 1 // past '{'
	for {
		if i >= len(in) {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		if in[i] == '}' {
			return out, in[i+1:], nil
		}
		j := strings.IndexByte(in[i:], '=')
		if j < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		name := in[i : i+j]
		if !validName(name) || strings.Contains(name, ":") {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		i += j + 1
		if i >= len(in) || in[i] != '"' {
			return nil, "", fmt.Errorf("label %s: value not quoted", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(in) {
				return nil, "", fmt.Errorf("label %s: unterminated value", name)
			}
			c := in[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(in) {
					return nil, "", fmt.Errorf("label %s: dangling escape", name)
				}
				switch in[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: invalid escape \\%c", name, in[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		out = append(out, Label{Name: name, Value: val.String()})
		if i < len(in) && in[i] == ',' {
			i++
		}
	}
}

func seriesKey(s Sample) string {
	parts := make([]string, 0, len(s.Labels)+1)
	parts = append(parts, s.Name)
	for _, l := range s.Labels {
		parts = append(parts, l.Name+"="+l.Value)
	}
	// Label order is part of the renderer contract, but for duplicate
	// detection a canonical order is what matters.
	sort.Strings(parts[1:])
	return strings.Join(parts, "\xff")
}

// lintHistogram checks one histogram family's bucket discipline.
func lintHistogram(f *Family) error {
	type group struct {
		les     []float64
		cums    []uint64
		infSeen bool
		count   *float64
		sumSeen bool
	}
	groups := map[string]*group{}
	keyOf := func(s *Sample) string {
		parts := []string{}
		for _, l := range s.Labels {
			if l.Name != "le" {
				parts = append(parts, l.Name+"="+l.Value)
			}
		}
		sort.Strings(parts)
		return strings.Join(parts, "\xff")
	}
	get := func(s *Sample) *group {
		k := keyOf(s)
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
		}
		return g
	}
	for i := range f.Samples {
		s := &f.Samples[i]
		switch s.Name {
		case f.Name + "_bucket":
			g := get(s)
			le := s.Label("le")
			if le == "" {
				return fmt.Errorf("histogram %s: bucket without le label", f.Name)
			}
			if le == "+Inf" {
				g.infSeen = true
				g.les = append(g.les, math.Inf(1))
			} else {
				if g.infSeen {
					return fmt.Errorf("histogram %s: bucket after +Inf", f.Name)
				}
				ub, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("histogram %s: bad le %q", f.Name, le)
				}
				g.les = append(g.les, ub)
			}
			g.cums = append(g.cums, uint64(s.Value))
		case f.Name + "_sum":
			get(s).sumSeen = true
		case f.Name + "_count":
			v := s.Value
			get(s).count = &v
		case f.Name:
			return fmt.Errorf("histogram %s: bare series (want _bucket/_sum/_count)", f.Name)
		}
	}
	for k, g := range groups {
		where := f.Name
		if k != "" {
			where += "{" + strings.ReplaceAll(k, "\xff", ",") + "}"
		}
		if len(g.les) == 0 {
			return fmt.Errorf("histogram %s: no buckets", where)
		}
		if !g.infSeen {
			return fmt.Errorf("histogram %s: missing +Inf bucket", where)
		}
		for i := 1; i < len(g.les); i++ {
			if g.les[i] <= g.les[i-1] {
				return fmt.Errorf("histogram %s: le values not ascending", where)
			}
			if g.cums[i] < g.cums[i-1] {
				return fmt.Errorf("histogram %s: cumulative bucket counts decrease", where)
			}
		}
		if g.count == nil {
			return fmt.Errorf("histogram %s: missing _count", where)
		}
		if !g.sumSeen {
			return fmt.Errorf("histogram %s: missing _sum", where)
		}
		if *g.count != float64(g.cums[len(g.cums)-1]) {
			return fmt.Errorf("histogram %s: _count %g disagrees with +Inf bucket %d", where, *g.count, g.cums[len(g.cums)-1])
		}
	}
	return nil
}

// BucketQuantile estimates the q-quantile (0..1) from cumulative
// histogram buckets: les are the upper bounds including a final +Inf,
// cums the cumulative counts per bucket. Values interpolate linearly
// within a bucket; a quantile landing in the +Inf bucket reports the
// last finite bound (the histogram cannot resolve beyond it). Returns 0
// for an empty histogram.
func BucketQuantile(les []float64, cums []uint64, q float64) float64 {
	if len(les) == 0 || len(les) != len(cums) {
		return 0
	}
	total := cums[len(cums)-1]
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	i := sort.Search(len(cums), func(i int) bool { return float64(cums[i]) >= rank })
	if i == len(cums) {
		i = len(cums) - 1
	}
	if math.IsInf(les[i], 1) {
		if len(les) >= 2 {
			return les[len(les)-2]
		}
		return 0
	}
	lower, below := 0.0, uint64(0)
	if i > 0 {
		lower, below = les[i-1], cums[i-1]
	}
	in := cums[i] - below
	if in == 0 {
		return les[i]
	}
	return lower + (les[i]-lower)*(rank-float64(below))/float64(in)
}
