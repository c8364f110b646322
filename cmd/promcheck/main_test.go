package main

import (
	"strings"
	"testing"
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

func TestSampleWithoutType(t *testing.T) {
	errs := check(t, "# HELP x a\nundeclared_total 1\n")
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

func TestNonCumulativeBuckets(t *testing.T) {
	input := `# HELP h x
# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 1
h_count 5
`
	errs := check(t, input)
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

func TestMissingInfBucket(t *testing.T) {
	input := `# HELP h x
# TYPE h histogram
h_bucket{le="1"} 5
h_sum 1
h_count 5
`
	errs := check(t, input)
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

func TestCountBucketMismatch(t *testing.T) {
	input := `# HELP h x
# TYPE h histogram
h_bucket{le="+Inf"} 5
h_sum 1
h_count 9
`
	errs := check(t, input)
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

func TestBadValue(t *testing.T) {
	errs := check(t, "# HELP x a\n# TYPE x counter\nx notanumber\n")
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

func TestEmptyInput(t *testing.T) {
	if errs := check(t, "just a summary line, no metrics\n"); len(errs) == 0 {
		t.Fatal("want no-samples error for metric-free input")
	}
}

// Histogram ladders with the same family but different label sets must be
// validated per series, not mixed.
func TestLabelledLadders(t *testing.T) {
	input := `# HELP h x
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
	if errs := check(t, input, "h"); len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
}

// TestIncompleteHistogramSeries: a histogram series needs a bucket ladder,
// _sum and _count, whatever else it has. Broken series report in sorted
// order, the same on every run.
func TestIncompleteHistogramSeries(t *testing.T) {
	for _, tc := range []struct {
		input string
		want  []string
	}{
		{"h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n", []string{"h: histogram missing _sum"}},
		{"h_sum 1.5\nh_count 3\n", []string{"h: histogram missing _bucket ladder"}},
		{"h_sum{s=\"z\"} 1\nh_count{s=\"z\"} 0\nh_sum{s=\"y\"} 1\nh_count{s=\"y\"} 0\n",
			[]string{`h{s="y",}: histogram missing _bucket`, `h{s="z",}: histogram missing _bucket`}},
	} {
		for run := 0; run < 5; run++ {
			errs := check(t, "# HELP h x\n# TYPE h histogram\n"+tc.input)
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
