// Command promcheck validates Prometheus text-exposition output (format
// 0.0.4) from stdin or a file — the CI back-stop behind `bayesperf
// -metrics`. It tolerates a non-metrics preamble (the CLI prints its
// summary lines before the `-metrics -` snapshot) by skipping everything
// before the first `# HELP` line, then checks the rest strictly:
//
//   - every sample line parses (name, optional labels, finite-or-special
//     float value) and its metric family was declared with # TYPE first;
//   - every histogram series (family plus label set, without le) exposes
//     a _bucket ladder, _sum and _count; each ladder is cumulative
//     (monotone, le-sorted, terminated by +Inf) and agrees with its
//     _count;
//   - -require name1,name2,... all appear with at least one sample.
//
// Exit status: 0 valid, 1 validation/requirement failure, 2 usage error.
//
// Usage:
//
//	bayesperf stream -q -metrics - | promcheck -require bayesperf_stream_windows_total
//	promcheck -require a,b,c snapshot.prom
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// sample is one parsed exposition line: metric name, sorted flat label
// string, and value.
type sample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

// checker accumulates the parsed exposition and the errors found.
type checker struct {
	types   map[string]string // family → counter|gauge|histogram|untyped...
	helps   map[string]bool
	samples []sample
	errs    []string
}

func (c *checker) errorf(line int, format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf("line %d: %s", line, fmt.Sprintf(format, args...)))
}

// family maps a sample name to its declared metric family: histogram
// samples report under <family>_bucket/_sum/_count.
func (c *checker) family(name string) (string, bool) {
	if _, ok := c.types[name]; ok {
		return name, true
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if c.types[base] == "histogram" {
				return base, true
			}
		}
	}
	return "", false
}

// parseLabels parses `key="value",...` (the braces already stripped),
// handling the \\, \", \n escapes of the exposition format.
func parseLabels(s string, lineNo int, c *checker) map[string]string {
	labels := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			c.errorf(lineNo, "malformed label pair %q", s)
			return labels
		}
		key := strings.TrimSpace(s[:eq])
		if !labelRe.MatchString(key) {
			c.errorf(lineNo, "invalid label name %q", key)
		}
		rest := s[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			c.errorf(lineNo, "label %s: value must be quoted", key)
			return labels
		}
		// Scan the quoted value, honoring backslash escapes.
		var val strings.Builder
		i := 1
		closed := false
		for i < len(rest) {
			ch := rest[i]
			if ch == '\\' {
				if i+1 >= len(rest) {
					c.errorf(lineNo, "label %s: dangling escape", key)
					return labels
				}
				switch rest[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					c.errorf(lineNo, "label %s: unknown escape \\%c", key, rest[i+1])
				}
				i += 2
				continue
			}
			if ch == '"' {
				closed = true
				i++
				break
			}
			val.WriteByte(ch)
			i++
		}
		if !closed {
			c.errorf(lineNo, "label %s: unterminated value", key)
			return labels
		}
		labels[key] = val.String()
		s = rest[i:]
		if len(s) > 0 {
			if s[0] != ',' {
				c.errorf(lineNo, "expected ',' between labels, got %q", s)
				return labels
			}
			s = s[1:]
		}
	}
	return labels
}

// parse consumes the exposition text, skipping everything before the first
// `# HELP` line (CLI summary preamble).
func (c *checker) parse(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	started := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if !started {
			if strings.HasPrefix(line, "# HELP ") {
				started = true
			} else {
				continue
			}
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, _ := strings.Cut(rest, " ")
			if !nameRe.MatchString(name) {
				c.errorf(lineNo, "HELP for invalid metric name %q", name)
			}
			if c.helps[name] {
				c.errorf(lineNo, "duplicate HELP for %s", name)
			}
			c.helps[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				c.errorf(lineNo, "TYPE line missing type: %q", line)
				continue
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				c.errorf(lineNo, "unknown metric type %q for %s", typ, name)
			}
			if _, dup := c.types[name]; dup {
				c.errorf(lineNo, "duplicate TYPE for %s", name)
			}
			c.types[name] = typ
		case strings.HasPrefix(line, "#"):
			// Free-form comment: legal, ignored.
		case strings.TrimSpace(line) == "":
			// Blank lines are legal separators.
		default:
			c.parseSample(line, lineNo)
		}
	}
	return sc.Err()
}

// parseSample validates one `name[{labels}] value` line.
func (c *checker) parseSample(line string, lineNo int) {
	rest := line
	var labels map[string]string

	brace := strings.IndexByte(rest, '{')
	var name string
	if brace >= 0 {
		name = rest[:brace]
		close := strings.LastIndexByte(rest, '}')
		if close < brace {
			c.errorf(lineNo, "unbalanced braces: %q", line)
			return
		}
		labels = parseLabels(rest[brace+1:close], lineNo, c)
		rest = strings.TrimSpace(rest[close+1:])
	} else {
		var ok bool
		name, rest, ok = strings.Cut(rest, " ")
		if !ok {
			c.errorf(lineNo, "sample missing value: %q", line)
			return
		}
		rest = strings.TrimSpace(rest)
	}
	if !nameRe.MatchString(name) {
		c.errorf(lineNo, "invalid metric name %q", name)
		return
	}
	// Value (a trailing timestamp is legal in 0.0.4; the first field is
	// the value either way).
	valStr, _, _ := strings.Cut(rest, " ")
	val, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		c.errorf(lineNo, "%s: bad sample value %q", name, valStr)
		return
	}
	if _, ok := c.family(name); !ok {
		c.errorf(lineNo, "sample %s has no preceding # TYPE", name)
	}
	c.samples = append(c.samples, sample{name: name, labels: labels, value: val, line: lineNo})
}

// labelKey flattens a label set minus `le` into a grouping key.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// histSeries is one histogram series (family plus label set, without le):
// its bucket ladder in exposition order and its _sum and _count samples.
type histSeries struct {
	les, counts      []float64
	hasSum, hasCount bool
	count            float64
	line             int // the series' first sample, for error positions
}

// checkHistograms verifies that every histogram series exposes _sum,
// _count and a bucket ladder, that the ladder is cumulative and ends at
// +Inf, and that _count equals the +Inf bucket. Series are checked in
// sorted order, so the errors come out the same on every run.
func (c *checker) checkHistograms() {
	series := map[string]*histSeries{} // family{labels} → series
	for _, s := range c.samples {
		fam, ok := c.family(s.name)
		if !ok || c.types[fam] != "histogram" || s.name == fam {
			continue
		}
		where := fam
		if key := labelKey(s.labels); key != "" {
			where = fam + "{" + key + "}"
		}
		h := series[where]
		if h == nil {
			h = &histSeries{line: s.line}
			series[where] = h
		}
		switch strings.TrimPrefix(s.name, fam) {
		case "_bucket":
			le, ok := s.labels["le"]
			if !ok {
				c.errorf(s.line, "%s: bucket without le label", s.name)
				continue
			}
			leV := infLE
			if le != "+Inf" {
				v, err := strconv.ParseFloat(le, 64)
				if err != nil {
					c.errorf(s.line, "%s: bad le %q", s.name, le)
					continue
				}
				leV = v
			}
			h.les = append(h.les, leV)
			h.counts = append(h.counts, s.value)
		case "_sum":
			h.hasSum = true
		case "_count":
			h.hasCount, h.count = true, s.value
		}
	}

	names := make([]string, 0, len(series))
	for where := range series {
		names = append(names, where)
	}
	sort.Strings(names)
	for _, where := range names {
		h := series[where]
		if !h.hasSum {
			c.errorf(h.line, "%s: histogram missing _sum series", where)
		}
		if !h.hasCount {
			c.errorf(h.line, "%s: histogram missing _count series", where)
		}
		if len(h.les) == 0 {
			c.errorf(h.line, "%s: histogram missing _bucket ladder", where)
			continue
		}
		for i := 1; i < len(h.les); i++ {
			if h.les[i] <= h.les[i-1] {
				c.errorf(h.line, "%s: bucket le values not increasing", where)
				break
			}
			if h.counts[i] < h.counts[i-1] {
				c.errorf(h.line, "%s: bucket counts not cumulative", where)
				break
			}
		}
		last := len(h.les) - 1
		if h.les[last] != infLE { //bayesvet:bitwise le="+Inf" parses to exactly math.Inf(1)
			c.errorf(h.line, "%s: bucket ladder missing le=\"+Inf\"", where)
		} else if h.hasCount && h.count != h.counts[last] { //bayesvet:bitwise _count must equal the +Inf bucket exactly per the exposition format
			c.errorf(h.line, "%s: _count %v != +Inf bucket %v", where, h.count, h.counts[last])
		}
	}
}

// infLE is the sort sentinel for le="+Inf".
var infLE = func() float64 { v, _ := strconv.ParseFloat("+Inf", 64); return v }()

// checkRequired verifies each required family has at least one sample.
func (c *checker) checkRequired(required []string) {
	seen := map[string]bool{}
	for _, s := range c.samples {
		if fam, ok := c.family(s.name); ok {
			seen[fam] = true
		}
	}
	for _, name := range required {
		if !seen[name] {
			c.errs = append(c.errs, fmt.Sprintf("required metric %s: no samples found", name))
		}
	}
}

// run executes the full check; split from main for testing.
func run(r io.Reader, required []string) (errs []string, err error) {
	c := &checker{types: map[string]string{}, helps: map[string]bool{}}
	if err := c.parse(r); err != nil {
		return nil, err
	}
	if len(c.samples) == 0 {
		c.errs = append(c.errs, "no metric samples found (is the input Prometheus text?)")
	}
	c.checkHistograms()
	c.checkRequired(required)
	return c.errs, nil
}

func main() {
	require := flag.String("require", "", "comma-separated metric families that must be present with samples")
	flag.Parse()

	in := io.Reader(os.Stdin)
	switch flag.NArg() {
	case 0:
	case 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "promcheck: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	default:
		fmt.Fprintln(os.Stderr, "usage: promcheck [-require a,b,c] [file]")
		os.Exit(2)
	}

	var required []string
	for _, name := range strings.Split(*require, ",") {
		if name = strings.TrimSpace(name); name != "" {
			required = append(required, name)
		}
	}

	errs, err := run(in, required)
	if err != nil {
		fmt.Fprintf(os.Stderr, "promcheck: read: %v\n", err)
		os.Exit(2)
	}
	if len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "promcheck: %s\n", e)
		}
		os.Exit(1)
	}
	fmt.Println("promcheck: ok")
}
