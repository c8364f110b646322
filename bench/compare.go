package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// readSide reads one side of a comparison: a comma-separated list of -out
// files, the runs of one commit.
func readSide(list string) ([]*runFile, error) {
	var runs []*runFile
	for _, path := range strings.Split(list, ",") {
		rf, err := readRunFile(path)
		if err != nil {
			return nil, err
		}
		runs = append(runs, rf)
	}
	return runs, nil
}

// compareFiles prints, for every workload and metric in both sides, the
// two sides' medians over their runs, the relative change from a to b and
// the metric's bound. It returns 1 when an end-to-end metric got worse by
// more than its bound, and 2 when the sides cannot be compared.
func compareFiles(spec *benchSpec, listA, listB string, stdout, stderr io.Writer) int {
	a, err := readSide(listA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readSide(listB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	regressed, err := compareRuns(spec, a, b, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if regressed > 0 {
		fmt.Fprintf(stdout, "%d metric(s) outside their bounds\n", regressed)
		return 1
	}
	fmt.Fprintf(stdout, "all gated metrics within their bounds\n")
	return 0
}

// medianOf is the median of one workload's metric over a side's runs; ok
// is false when no run has it and an error when only some do.
func medianOf(runs []*runFile, workload, name string) (v float64, ok bool, err error) {
	var vals []float64
	for _, rf := range runs {
		if res := rf.Workloads[workload]; res != nil {
			if m, ok := res.Metrics[name]; ok {
				vals = append(vals, m.Value)
			}
		}
	}
	switch len(vals) {
	case 0:
		return 0, false, nil
	case len(runs):
		return median(vals), true, nil
	}
	return 0, false, fmt.Errorf("%s %s is in only %d of %d runs", workload, name, len(vals), len(runs))
}

// compareRuns writes the comparison table and counts the gated metrics
// that regressed. Per-layer metrics are shown but have no bound.
func compareRuns(spec *benchSpec, a, b []*runFile, stdout io.Writer) (int, error) {
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\ta (%d runs)\tb (%d runs)\tchange\tbound\t\n", len(a), len(b))
	regressed, compared := 0, 0
	for _, w := range workloads {
		for _, group := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			for _, m := range group {
				va, okA, err := medianOf(a, w.name, m.Name)
				if err != nil {
					return 0, err
				}
				vb, okB, err := medianOf(b, w.name, m.Name)
				if err != nil {
					return 0, err
				}
				if !okA && !okB {
					continue
				}
				if okA != okB {
					return 0, fmt.Errorf("%s %s is on only one side", w.name, m.Name)
				}
				compared++
				change := (vb - va) / math.Abs(va)
				bound, verdict := "-", ""
				if m.Bound > 0 {
					bound = fmt.Sprintf("%.1f%%", 100*m.Bound)
					worse := change
					if m.Better == "higher" {
						worse = -change
					}
					if worse > m.Bound || !finite(worse) {
						verdict = "REGRESSED"
						regressed++
					}
				}
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%s\t%s\n",
					w.name, m.Name, va, vb, 100*change, bound, verdict)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return 0, err
	}
	if compared == 0 {
		return 0, fmt.Errorf("the sides share no workload metrics")
	}
	return regressed, nil
}
