package metrics

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// ParsedSample is one sample line of a parsed exposition page.
type ParsedSample struct {
	// Name is the full sample name, including any histogram suffix
	// (for example soproc_engine_point_latency_seconds_bucket).
	Name string
	// Labels holds the sample's label pairs.
	Labels map[string]string
	// Value is the sample value.
	Value float64
}

// ParsedFamily is one metric family of a parsed exposition page.
type ParsedFamily struct {
	// Name is the family name from its # TYPE line.
	Name string
	// Help is the # HELP text, unescaped.
	Help string
	// Kind is the declared type.
	Kind Kind
	// Samples holds the family's sample lines in page order.
	Samples []ParsedSample
}

// Sample returns the family's first sample whose labels include every
// pair in want (nil matches the first sample), or ok=false.
func (f *ParsedFamily) Sample(want map[string]string) (ParsedSample, bool) {
next:
	for _, s := range f.Samples {
		for k, v := range want {
			if s.Labels[k] != v {
				continue next
			}
		}
		return s, true
	}
	return ParsedSample{}, false
}

// Value returns the value of the family's single unlabeled sample. It
// returns ok=false if the family has no samples or the first sample
// carries labels (use Sample for labeled families).
func (f *ParsedFamily) Value() (float64, bool) {
	if len(f.Samples) == 0 || len(f.Samples[0].Labels) != 0 {
		return 0, false
	}
	return f.Samples[0].Value, true
}

var (
	sampleRe = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)(\{.*\})?\s+(\S+)$`)
	labelRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
	// nameRe is the naming contract of every family this repository
	// exports: soproc_<subsystem>_<name>, lower-snake.
	nameRe = regexp.MustCompile(`^soproc_(engine|tier|server|store|cluster|admit)_[a-z0-9_]+$`)
)

// ParseText parses a Prometheus text exposition (0.0.4) page into its
// families, keyed by family name. It is strict about the subset this
// package renders: every sample must belong to a family declared by a
// preceding # TYPE line (histogram samples may append _bucket, _sum,
// _count), values must parse as floats, and label pairs must be
// well-formed.
func ParseText(page string) (map[string]*ParsedFamily, error) {
	families := make(map[string]*ParsedFamily)
	helps := make(map[string]string)
	for ln, line := range strings.Split(page, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				return nil, fmt.Errorf("metrics: line %d: malformed comment %q", ln+1, line)
			}
			switch fields[1] {
			case "HELP":
				rest := ""
				if len(fields) == 4 {
					rest = fields[3]
				}
				helps[fields[2]] = unescape(rest)
			case "TYPE":
				if len(fields) != 4 {
					return nil, fmt.Errorf("metrics: line %d: malformed TYPE %q", ln+1, line)
				}
				name, kind := fields[2], Kind(fields[3])
				switch kind {
				case KindCounter, KindGauge, KindHistogram:
				default:
					return nil, fmt.Errorf("metrics: line %d: unknown type %q for %s", ln+1, kind, name)
				}
				if _, dup := families[name]; dup {
					return nil, fmt.Errorf("metrics: line %d: duplicate TYPE for %s", ln+1, name)
				}
				families[name] = &ParsedFamily{Name: name, Help: helps[name], Kind: kind}
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("metrics: line %d: malformed sample %q", ln+1, line)
		}
		name, labelBlock, valueText := m[1], m[2], m[3]
		fam := familyFor(families, name)
		if fam == nil {
			return nil, fmt.Errorf("metrics: line %d: sample %s has no TYPE declaration", ln+1, name)
		}
		labels, err := parseLabels(labelBlock)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %v", ln+1, err)
		}
		value, err := parseValue(valueText)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: bad value %q: %v", ln+1, valueText, err)
		}
		fam.Samples = append(fam.Samples, ParsedSample{Name: name, Labels: labels, Value: value})
	}
	return families, nil
}

// Lint parses page and holds every family to the repository's naming
// contract: a soproc_<subsystem>_<name> name, a counter name ending in
// _total, and HELP text. It returns the families, or an error naming
// every violation. The serve package's format test and cmd/soload
// -lint-metrics run every page they scrape through it.
func Lint(page string) (map[string]*ParsedFamily, error) {
	families, err := ParseText(page)
	if err != nil {
		return nil, err
	}
	if len(families) == 0 {
		return nil, errors.New("metrics: page has no families")
	}
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	var errs []error
	for _, name := range names {
		if !nameRe.MatchString(name) {
			errs = append(errs, fmt.Errorf("metrics: family %q violates soproc_<subsystem>_<name> naming", name))
		}
		if families[name].Kind == KindCounter && !strings.HasSuffix(name, "_total") {
			errs = append(errs, fmt.Errorf("metrics: counter %q must end in _total", name))
		}
		if strings.TrimSpace(families[name].Help) == "" {
			errs = append(errs, fmt.Errorf("metrics: family %q has no HELP text", name))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return families, nil
}

// familyFor resolves a sample name to its declaring family, stripping
// histogram suffixes when the base family is a histogram.
func familyFor(families map[string]*ParsedFamily, name string) *ParsedFamily {
	if f, ok := families[name]; ok {
		return f
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, found := strings.CutSuffix(name, suffix)
		if !found {
			continue
		}
		if f, ok := families[base]; ok && f.Kind == KindHistogram {
			return f
		}
	}
	return nil
}

// parseLabels parses an optional {k="v",...} block.
func parseLabels(block string) (map[string]string, error) {
	labels := make(map[string]string)
	if block == "" {
		return labels, nil
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(block, "{"), "}")
	if inner == "" {
		return labels, nil
	}
	for _, pair := range splitLabelPairs(inner) {
		m := labelRe.FindStringSubmatch(pair)
		if m == nil {
			return nil, fmt.Errorf("malformed label pair %q", pair)
		}
		labels[m[1]] = unescape(m[2])
	}
	return labels, nil
}

// splitLabelPairs splits k="v",k2="v2" on commas outside quotes.
func splitLabelPairs(inner string) []string {
	var pairs []string
	var cur strings.Builder
	inQuote, escaped := false, false
	for _, r := range inner {
		switch {
		case escaped:
			escaped = false
			cur.WriteRune(r)
		case r == '\\' && inQuote:
			escaped = true
			cur.WriteRune(r)
		case r == '"':
			inQuote = !inQuote
			cur.WriteRune(r)
		case r == ',' && !inQuote:
			pairs = append(pairs, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		pairs = append(pairs, cur.String())
	}
	return pairs
}

// parseValue parses a sample value, accepting the special spellings
// +Inf, -Inf and NaN.
func parseValue(text string) (float64, error) {
	switch text {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(text, 64)
}

// unescape reverses escapeLabel/escapeHelp: \n, \" and \\ sequences
// become their literal characters.
func unescape(v string) string {
	var b strings.Builder
	escaped := false
	for _, r := range v {
		if escaped {
			if r == 'n' {
				b.WriteByte('\n')
			} else {
				b.WriteRune(r)
			}
			escaped = false
			continue
		}
		if r == '\\' {
			escaped = true
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}
