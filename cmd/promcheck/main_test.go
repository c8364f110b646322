package main

import (
	"strings"
	"testing"

	"bayesperf/internal/obs"
)

const valid = `=== skylake · streaming ===
window=24 hop=4 ... summary preamble to skip ...
# HELP demo_total A counter.
# TYPE demo_total counter
demo_total{kind="a b\"c\\d\ne"} 3
demo_total 7
# HELP demo_seconds A histogram.
# TYPE demo_seconds histogram
demo_seconds_bucket{le="0.1"} 1
demo_seconds_bucket{le="1"} 3
demo_seconds_bucket{le="+Inf"} 4
demo_seconds_sum 2.5
demo_seconds_count 4
`

func check(t *testing.T, input string, required ...string) []string {
	t.Helper()
	errs, err := run(strings.NewReader(input), required)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return errs
}

func TestValidWithPreamble(t *testing.T) {
	if errs := check(t, valid, "demo_total", "demo_seconds"); len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
}

func TestMissingRequired(t *testing.T) {
	errs := check(t, valid, "demo_total", "absent_metric")
	if len(errs) != 1 || !strings.Contains(errs[0], "absent_metric") {
		t.Fatalf("want one missing-metric error, got %v", errs)
	}
}

const withoutType = "# HELP x a\nundeclared_total 1\n"

func TestSampleWithoutType(t *testing.T) {
	errs := check(t, withoutType)
	found := false
	for _, e := range errs {
		if strings.Contains(e, "no preceding # TYPE") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want missing-TYPE error, got %v", errs)
	}
}

const nonCumulative = `# HELP h x
# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 1
h_count 5
`

func TestNonCumulativeBuckets(t *testing.T) {
	errs := check(t, nonCumulative)
	found := false
	for _, e := range errs {
		if strings.Contains(e, "not cumulative") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want cumulative-bucket error, got %v", errs)
	}
}

const missingInf = `# HELP h x
# TYPE h histogram
h_bucket{le="1"} 5
h_sum 1
h_count 5
`

func TestMissingInfBucket(t *testing.T) {
	errs := check(t, missingInf)
	found := false
	for _, e := range errs {
		if strings.Contains(e, `+Inf`) {
			found = true
		}
	}
	if !found {
		t.Fatalf("want missing-+Inf error, got %v", errs)
	}
}

const countMismatch = `# HELP h x
# TYPE h histogram
h_bucket{le="+Inf"} 5
h_sum 1
h_count 9
`

func TestCountBucketMismatch(t *testing.T) {
	errs := check(t, countMismatch)
	found := false
	for _, e := range errs {
		if strings.Contains(e, "_count") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want count-mismatch error, got %v", errs)
	}
}

const badValue = "# HELP x a\n# TYPE x counter\nx notanumber\n"

func TestBadValue(t *testing.T) {
	errs := check(t, badValue)
	found := false
	for _, e := range errs {
		if strings.Contains(e, "bad sample value") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want bad-value error, got %v", errs)
	}
}

const metricFree = "just a summary line, no metrics\n"

func TestEmptyInput(t *testing.T) {
	if errs := check(t, metricFree); len(errs) == 0 {
		t.Fatal("want no-samples error for metric-free input")
	}
}

// Histogram ladders with the same family but different label sets must be
// validated per series, not mixed.
const labelledLadders = `# HELP h x
# TYPE h histogram
h_bucket{stage="a",le="1"} 2
h_bucket{stage="a",le="+Inf"} 3
h_sum{stage="a"} 1.5
h_count{stage="a"} 3
h_bucket{stage="b",le="1"} 0
h_bucket{stage="b",le="+Inf"} 1
h_sum{stage="b"} 9
h_count{stage="b"} 1
`

func TestLabelledLadders(t *testing.T) {
	if errs := check(t, labelledLadders, "h"); len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
}

// incompleteSeries are histogram series missing a part, each after a
// "# HELP h x" and "# TYPE h histogram" header, with the errors they report.
var incompleteSeries = []struct {
	input string
	want  []string
}{
	{"h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n", []string{"h: histogram missing _sum"}},
	{"h_sum 1.5\nh_count 3\n", []string{"h: histogram missing _bucket ladder"}},
	{"h_sum{s=\"z\"} 1\nh_count{s=\"z\"} 0\nh_sum{s=\"y\"} 1\nh_count{s=\"y\"} 0\n",
		[]string{`h{s="y",}: histogram missing _bucket`, `h{s="z",}: histogram missing _bucket`}},
}

const histogramHeader = "# HELP h x\n# TYPE h histogram\n"

// TestIncompleteHistogramSeries: a histogram series needs a bucket ladder,
// _sum and _count, whatever else it has. Broken series report in sorted
// order, the same on every run.
func TestIncompleteHistogramSeries(t *testing.T) {
	for _, tc := range incompleteSeries {
		for run := 0; run < 5; run++ {
			errs := check(t, histogramHeader+tc.input)
			if len(errs) != len(tc.want) {
				t.Fatalf("%q: errors %v, want %d", tc.input, errs, len(tc.want))
			}
			for i, w := range tc.want {
				if !strings.Contains(errs[i], w) {
					t.Fatalf("%q: error %d is %q, want %q", tc.input, i, errs[i], w)
				}
			}
		}
	}
}

// FuzzPromcheck checks two properties. run never panics, whatever the
// input: it returns errors or a read error. And the exposition that
// obs.(*Registry).WritePrometheus writes always validates with no error,
// for any label value (quotes, backslashes, newlines and invalid UTF-8
// included) and any counter value, gauge value or histogram observation
// (NaN and ±Inf included). The seed corpus is every input of the tests
// above.
func FuzzPromcheck(f *testing.F) {
	seeds := []string{valid, withoutType, nonCumulative, missingInf, countMismatch, badValue, metricFree, labelledLadders}
	for _, tc := range incompleteSeries {
		seeds = append(seeds, histogramHeader+tc.input)
	}
	for i, input := range seeds {
		f.Add(input, `a b"c\d`+"\n"+"e", uint64(i), 2.5, -0.25)
	}
	f.Fuzz(func(t *testing.T, input, label string, n uint64, v, w float64) {
		// Validation errors and a read error (an over-long line) are both
		// fine here; a panic is not.
		_, _ = run(strings.NewReader(input), []string{"demo_total", "h"})

		reg := obs.NewRegistry()
		reg.Counter("fuzz_events_total", "Events.", obs.Label{Key: "kind", Value: label}).Add(n)
		reg.Counter("fuzz_events_total", "Events.").Inc()
		reg.Gauge("fuzz_level", "Level.", obs.Label{Key: "kind", Value: label}).Set(v)
		for _, stage := range []string{label, "fixed"} {
			h := reg.Histogram("fuzz_seconds", "Latency.", obs.LatencyBuckets(),
				obs.Label{Key: "stage", Value: stage}, obs.Label{Key: "kind", Value: label})
			h.Observe(v)
			h.Observe(w)
		}
		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		text := buf.String()
		errs, err := run(strings.NewReader(text), []string{"fuzz_events_total", "fuzz_level", "fuzz_seconds"})
		if err != nil || len(errs) != 0 {
			t.Fatalf("registry exposition fails validation: %v %v\n%s", err, errs, text)
		}
	})
}
