package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json is generated (`bash benchmark/run.sh --list --json`); it must
// not drift from the table the harness measures by.
func TestBenchmarkJSONMatchesTheTable(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json drifted from spec.go; regenerate it with `bash benchmark/run.sh --list --json > BENCHMARK.json`\n--- checked in\n%s\n--- table\n%s", got, want)
	}
}

// The benchmark contract's limits on BENCHMARK.json.
func TestTableMeetsTheContract(t *testing.T) {
	var f struct {
		Command    []string         `json:"command"`
		Paths      []string         `json:"paths"`
		RunSeconds int              `json:"run_seconds"`
		Workloads  []map[string]any `json:"workloads"`
		EndToEnd   []map[string]any `json:"end_to_end"`
		PerLayer   []map[string]any `json:"per_layer"`
	}
	raw := benchmarkJSON()
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 6 || len(raw) > 64<<10 {
		t.Errorf("%d top-level keys, %d bytes", len(top), len(raw))
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
	// 4 + 22 x workloads runs, each a set-up plus the measuring time, must
	// fit the contract's 3420 s with room for two builds.
	if total := (4 + 22*len(f.Workloads)) * (f.RunSeconds + 8); total > 3200 {
		t.Errorf("%d runs of ~%d s would take %d s", 4+22*len(f.Workloads), f.RunSeconds+8, total)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(v any) string {
		s, _ := v.(string)
		if !nameRE.MatchString(s) || seen[s] {
			t.Errorf("name %q is malformed or used twice", s)
		}
		seen[s] = true
		return s
	}
	for _, w := range f.Workloads {
		name(w["name"])
		why, _ := w["why"].(string)
		if len(w) != 2 || why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %v: want exactly a name and a one-line why of at most 200 characters (has %d)", w["name"], len(why))
		}
	}
	setup := false
	for _, m := range f.EndToEnd {
		n := name(m["name"])
		unit, _ := m["unit"].(string)
		bound, _ := m["bound"].(float64)
		if len(m) != 4 || !unitRE.MatchString(unit) || bound <= 0 || bound > 0.25 {
			t.Errorf("end-to-end metric %v is malformed", m)
		}
		if b := m["better"]; b != lower && b != higher {
			t.Errorf("%s: better = %v", n, b)
		}
		if n == "setup_s" {
			setup = unit == "s" && m["better"] == lower
			for _, o := range f.EndToEnd {
				if o["bound"].(float64) > bound {
					t.Errorf("setup_s must carry the largest bound; %v has %v", o["name"], o["bound"])
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range f.PerLayer {
		n := name(m["name"])
		unit, _ := m["unit"].(string)
		if len(m) != 3 || !unitRE.MatchString(unit) {
			t.Errorf("per-layer metric %v is malformed", m)
		}
		if b := m["better"]; b != lower && b != higher {
			t.Errorf("%s: better = %v", n, b)
		}
	}
	for _, p := range f.Paths {
		if p != "benchmark" {
			t.Errorf("path %q", p)
		}
	}
	for _, w := range workloads {
		newWorkload(w.Name) // panics when the table names a workload nothing implements
	}
}

// A bad command line fails before any run starts.
func TestBadCommandLinesFailFast(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"--workload", "no_such_workload"},
		{"--workload", "fleet_sched", "--seed", "minus-one"},
		{"--workload", "fleet_sched", "--seed", "-3"},
		{"--workload", "fleet_sched", "--trace", "2"},
		{"--workload", "fleet_sched", "--seconds", "0"},
		{"--workload", "fleet_sched", "--out", filepath.Join(file, "sub")},
		{"--runs", "0"},
		{"stray"},
		{"compare", "only-one.json"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if errOut.Len() == 0 || strings.Contains(out.String(), "repetitions") {
			t.Errorf("%v: stderr %q, stdout %q", args, errOut.String(), out.String())
		}
	}
}

func TestListNamesEveryWorkloadAndMetric(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"--list"}, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), w.Name) {
			t.Errorf("--list omits workload %s", w.Name)
		}
	}
	for _, set := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range set {
			if !strings.Contains(out.String(), m.Name) || m.Doc == "" {
				t.Errorf("--list omits metric %s or it has no description", m.Name)
			}
		}
	}
	out.Reset()
	if code := run([]string{"--list", "--json"}, &out, io.Discard); code != 0 || !bytes.Equal(out.Bytes(), benchmarkJSON()) {
		t.Errorf("--list --json: exit %d", code)
	}
}

// compare reads two result sets and judges every pairing.
func TestCompareSets(t *testing.T) {
	set := func(wall float64, digest string) resultSet {
		var s resultSet
		for _, w := range workloads {
			for i := 0; i < 3; i++ {
				r := record{Info: info{Workload: w.Name, Digest: digest}, Result: result{Correct: true, Metrics: map[string]metricValue{}}}
				for _, m := range endToEnd {
					r.Result.Metrics[m.Name] = metricValue{1 + float64(i)/1000, m.Unit}
				}
				r.Result.Metrics["wall_s"] = metricValue{wall + float64(i)/1000, "s"}
				s.Runs = append(s.Runs, r)
			}
		}
		return s
	}
	var out bytes.Buffer
	if code := compareSets(set(4, "aa"), set(4.1, "aa"), &out); code != 0 {
		t.Errorf("same sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(set(4, "aa"), set(6, "aa"), &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("slower set: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(set(4, "aa"), set(4, "bb"), &out); code != 1 || !strings.Contains(out.String(), "MOVED") {
		t.Errorf("moved digest: exit %d\n%s", code, out.String())
	}
}
