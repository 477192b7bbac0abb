package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test holds the program to.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// result is the JSON last line of a run.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// tinyRun runs one workload at a tiny size and parses its report.
func tinyRun(t *testing.T, workload string, traced, corrupt bool) (result, string) {
	t.Helper()
	run, ok := workloads[workload]
	if !ok {
		t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", workload)
	}
	cfg := config{workload: workload, seed: 7, seconds: 0.2, traced: traced, tiny: true, corrupt: corrupt, spansDir: t.TempDir()}
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var out bytes.Buffer
	if err := rep.write(&out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v\n%s", workload, err, out.String())
	}
	if traced {
		files, _ := filepath.Glob(filepath.Join(cfg.spansDir, "*.jsonl"))
		if len(files) != 1 {
			t.Errorf("%s: traced run wrote %d span files, want 1", workload, len(files))
		}
	}
	return res, out.String()
}

// TestReportNamesEveryMetric runs every workload at a tiny size, untraced
// and traced, and checks that the report carries exactly the metrics
// BENCHMARK.json lists, each with its unit, and that every output checked
// out.
func TestReportNamesEveryMetric(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for w := range workloads {
		have = append(have, w)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program workloads %v", names, have)
	}
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			res, out := tinyRun(t, w.Name, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", w.Name, traced, res.Correct, res.Failed, res.Attempted, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedTotalIsCaught perturbs the first total each workload checks
// and requires the run to report the failure: the correctness twin can
// fail.
func TestCorruptedTotalIsCaught(t *testing.T) {
	for _, w := range loadSpec(t).Workloads {
		res, out := tinyRun(t, w.Name, false, true)
		if res.Correct || res.Failed == 0 || !strings.Contains(out, "MISMATCH") {
			t.Errorf("%s: corrupted total not caught: correct=%v failed=%d\n%s", w.Name, res.Correct, res.Failed, out)
		}
	}
}
