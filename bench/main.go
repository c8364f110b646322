// Command bench is the repository benchmark: it streams simulated counter
// intervals through the public Session API (bayesperf.New + RunStream) on
// four workloads and reports end-to-end metrics, or, traced, per-layer
// metrics measured at the Source boundary, from the program's own metrics
// registry and from a replay of the graph kernel. BENCHMARK.json at the
// repository root declares the workloads, the metrics and their bounds;
// README.md in this directory explains them.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bench [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-spans FILE]
//	bench -compare A1.json[,A2.json...] B1.json[,B2.json...]
//
// Each run prints every metric as "workload metric value unit", then one
// JSON line with "correct", "attempted", "failed" and "metrics". It exits 1
// when a correctness check fails and 2 on bad usage or set-up errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runFile is what -out writes: every workload's full result.
type runFile struct {
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Workloads map[string]*result `json:"workloads"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "all", "workload to run, or all")
	seed := fl.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fl.Float64("seconds", 0, "timed seconds per workload (0: run_seconds from BENCHMARK.json)")
	trace := fl.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	out := fl.String("out", "", "write every workload's full result as JSON to this file")
	spansOut := fl.String("spans", "", "traced runs: write the spans and histograms as JSON to this file")
	root := fl.String("root", ".", "repository root, holding BENCHMARK.json and examples/")
	compare := fl.Bool("compare", false, "compare two sides, each a comma-separated list of -out files, by their medians against the bounds in BENCHMARK.json")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintf(stderr, "bench: -compare needs two sides of result files\n")
			return 2
		}
		return compareFiles(spec, fl.Arg(0), fl.Arg(1), stdout, stderr)
	}
	if fl.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fl.Usage()
		return 2
	}
	c := config{
		root:     *root,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		phaseLen: phaseIntervals,
		warnings: &lineCounter{},
	}
	if c.seconds <= 0 {
		c.seconds = float64(spec.RunSeconds)
	}
	if c.traced {
		c.spans = &tracer{}
	}
	selected := workloads
	if *name != "all" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	log.SetOutput(c.warnings)
	defer log.SetOutput(os.Stderr)

	rf, err := runAll(c, spec, selected)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	sum := summarize(rf, selected, stdout)
	for _, w := range selected {
		for _, p := range rf.Workloads[w.name].Problems {
			fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, p)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, rf); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	if c.traced && *spansOut != "" {
		if err := writeJSON(*spansOut, c.spans); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

// runAll runs the selected workloads in order and checks that each
// reports exactly the metrics BENCHMARK.json declares for the run's mode.
func runAll(c config, spec *benchSpec, selected []workload) (*runFile, error) {
	rf := &runFile{Seed: c.seed, Traced: c.traced, Workloads: map[string]*result{}}
	declared := spec.EndToEnd
	if c.traced {
		declared = spec.PerLayer
	}
	for _, w := range selected {
		res, err := runWorkload(c, w)
		if err != nil {
			return nil, err
		}
		if err := checkDeclared(declared, res.Metrics); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rf.Workloads[w.name] = res
	}
	return rf, nil
}

// summarize prints every metric as "workload metric value unit" and
// builds the summary line. With one workload its metrics keep their
// names; with several they are prefixed "workload/".
func summarize(rf *runFile, selected []workload, stdout io.Writer) summary {
	sum := summary{Correct: true, Metrics: map[string]metric{}}
	for _, w := range selected {
		res := rf.Workloads[w.name]
		sum.Correct = sum.Correct && res.Correct
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		for _, group := range []map[string]metric{res.Metrics, res.Info} {
			for _, k := range sortedKeys(group) {
				fmt.Fprintf(stdout, "%s %s %.6g %s\n", w.name, k, group[k].Value, group[k].Unit)
			}
		}
		for k, m := range res.Metrics {
			if len(selected) > 1 {
				k = w.name + "/" + k
			}
			sum.Metrics[k] = m
		}
	}
	return sum
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec is one declared metric; Bound is set for end-to-end metrics
// only.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// checkDeclared requires got to hold exactly the declared metrics, each in
// its declared unit and finite.
func checkDeclared(declared []metricSpec, got map[string]metric) error {
	for _, d := range declared {
		m, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("declared metric %s was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		if !finite(m.Value) {
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	if len(got) != len(declared) {
		for _, k := range sortedKeys(got) {
			if !declares(declared, k) {
				return fmt.Errorf("metric %s is not declared in BENCHMARK.json", k)
			}
		}
	}
	return nil
}

func declares(declared []metricSpec, name string) bool {
	for _, d := range declared {
		if d.Name == name {
			return true
		}
	}
	return false
}
