package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func loadRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesWorkloads keeps BENCHMARK.json and the workload table in
// step.
func TestSpecMatchesWorkloads(t *testing.T) {
	spec := loadRepoSpec(t)
	var declared, built []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		built = append(built, w.name)
	}
	if !reflect.DeepEqual(declared, built) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", declared, built)
	}
}

// TestSmoke runs every workload at a small size (two timed sessions of
// 1,800 intervals; shorter tumbling-window sessions are dominated by their
// phase-boundary windows, where correction loses), untraced and traced, and
// checks that each run passes its correctness checks and reports exactly
// the metrics BENCHMARK.json declares, finite and in the declared units.
func TestSmoke(t *testing.T) {
	spec := loadRepoSpec(t)
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	for _, traced := range []bool{false, true} {
		declared := spec.EndToEnd
		if traced {
			declared = spec.PerLayer
		}
		for _, w := range workloads {
			c := config{
				root:     "..",
				seed:     1,
				traced:   traced,
				phaseLen: 600,
				sessions: 2,
				warnings: &lineCounter{},
			}
			if traced {
				c.spans = &tracer{}
			}
			res, err := runWorkload(c, w)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: correctness checks failed: %v", w.name, traced, res.Problems)
			}
			if err := checkDeclared(declared, res.Metrics); err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
			for k, m := range res.Info {
				if !finite(m.Value) {
					t.Errorf("%s traced=%v: %s is %v", w.name, traced, k, m.Value)
				}
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d windows failed of %d", w.name, traced, res.Failed, res.Attempted)
			}
			if traced && len(c.spans.Spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.name)
			}
		}
	}
}

func TestWindowStarts(t *testing.T) {
	for _, tc := range []struct {
		n, window, hop int
		want           []int
	}{
		{0, 24, 4, nil},
		{5, 24, 4, []int{0}},
		{24, 24, 4, []int{0}},
		{30, 24, 4, []int{0, 4, 6}},
		{48, 24, 24, []int{0, 24}},
	} {
		if got := windowStarts(tc.n, tc.window, tc.hop); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("windowStarts(%d, %d, %d) = %v, want %v", tc.n, tc.window, tc.hop, got, tc.want)
		}
	}
}

// TestCompare checks -compare on hand-made result files: changes within
// the bounds pass, a regression in either direction of "better" fails,
// per-layer metrics are shown but never gated, and several runs per side
// compare by their medians.
func TestCompare(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricSpec{
			{Name: "ips_p50", Unit: "intervals/s", Better: "higher", Bound: 0.1},
			{Name: "session_ms_p90", Unit: "ms", Better: "lower", Bound: 0.1},
		},
		PerLayer: []metricSpec{{Name: "stream.start_us", Unit: "us", Better: "lower"}},
	}
	file := func(ips, p90, start float64) string {
		rf := runFile{Workloads: map[string]*result{"rr-exact": {
			Correct: true, Attempted: 1,
			Metrics: map[string]metric{
				"ips_p50":         {ips, "intervals/s"},
				"session_ms_p90":  {p90, "ms"},
				"stream.start_us": {start, "us"},
			},
		}}}
		path := filepath.Join(t.TempDir(), "run.json")
		if err := writeJSON(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file(1000, 50, 10)
	for _, tc := range []struct {
		name      string
		other     string
		want      int
		regressed string
	}{
		{"within bounds", file(950, 54, 10), 0, ""},
		{"better", file(2000, 25, 10), 0, ""},
		{"throughput regressed", file(880, 50, 10), 1, "ips_p50"},
		{"latency regressed", file(1000, 56, 10), 1, "session_ms_p90"},
		{"per-layer ungated", file(1000, 50, 100), 0, ""},
	} {
		var out, errOut bytes.Buffer
		if got := compareFiles(spec, base, tc.other, &out, &errOut); got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, got, tc.want, out.String(), errOut.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "REGRESSED") && !strings.Contains(line, " "+tc.regressed+" ") {
				t.Errorf("%s: unexpected regression line %q", tc.name, line)
			}
		}
	}

	// Several runs per side compare by their medians: one slow run on a
	// side does not fail the gate, a slow majority does.
	base3 := strings.Join([]string{base, file(1000, 50, 10), file(1000, 50, 10)}, ",")
	for _, tc := range []struct {
		name  string
		other string
		want  int
	}{
		{"one slow run of three", strings.Join([]string{file(500, 90, 10), file(990, 51, 10), file(1010, 49, 10)}, ","), 0},
		{"two slow runs of three", strings.Join([]string{file(500, 90, 10), file(600, 80, 10), file(1010, 49, 10)}, ","), 1},
	} {
		var out, errOut bytes.Buffer
		if got := compareFiles(spec, base3, tc.other, &out, &errOut); got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, got, tc.want, out.String(), errOut.String())
		}
	}

	var out, errOut bytes.Buffer
	missing := filepath.Join(t.TempDir(), "missing.json")
	if got := compareFiles(spec, base, missing, &out, &errOut); got != 2 {
		t.Errorf("missing file: exit %d, want 2", got)
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	data, _ := json.Marshal(runFile{})
	if err := os.WriteFile(empty, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := compareFiles(spec, base, empty, &out, &errOut); got != 2 {
		t.Errorf("no shared metrics: exit %d, want 2", got)
	}
}
