package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	cases := [][]string{
		{"-quick", "-table", "1"},
		{"-quick", "-table", "2"},
		{"-quick", "-table", "4"},
		{"-quick", "-figure", "6"},
		{"-quick", "-ablations"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-json", "-table", "4"}, &buf); err != nil {
		t.Fatalf("run -json: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	table4, ok := doc["table4"].(map[string]any)
	if !ok {
		t.Fatalf("JSON lacks table4 object: %v", doc)
	}
	if _, ok := table4["rows"]; !ok {
		t.Error("table4 JSON lacks rows")
	}
	if _, ok := table4["speedup_fast_vs_cold"]; !ok {
		t.Error("table4 JSON lacks speedup_fast_vs_cold")
	}
	if strings.Contains(buf.String(), "Table 4:") {
		t.Error("-json output still contains rendered tables")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-table", "x"}, io.Discard); err == nil {
		t.Error("non-numeric table accepted")
	}
}

// TestRunMultipleTables: the repeatable -table flag runs exactly the
// named experiments in one process — the CI regression step's shape.
func TestRunMultipleTables(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-json", "-table", "4", "-table", "5"}, &buf); err != nil {
		t.Fatalf("run -table 4 -table 5: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	for _, want := range []string{"table4", "table5"} {
		if _, ok := doc[want].(map[string]any); !ok {
			t.Errorf("JSON lacks %s", want)
		}
	}
	for _, not := range []string{"table1", "table2", "table3", "scalability"} {
		if _, ok := doc[not]; ok {
			t.Errorf("JSON unexpectedly contains %s", not)
		}
	}
	table5 := doc["table5"].(map[string]any)
	rows, ok := table5["rows"].([]any)
	if !ok || len(rows) == 0 {
		t.Fatal("table5 JSON lacks rows")
	}
	row := rows[0].(map[string]any)
	for _, field := range []string{"nodes", "provision_ns", "join_ns", "requests_per_sec"} {
		if _, ok := row[field]; !ok {
			t.Errorf("table5 row lacks %q", field)
		}
	}
}

func baselineDoc(t *testing.T) map[string]any {
	t.Helper()
	return currentDoc(t, `{
		"table4": {
			"rows": [
				{"mode": "cold", "clients": 4, "verifications_per_sec": 10.0},
				{"mode": "fast-path", "clients": 4, "verifications_per_sec": 100000.0}
			],
			"speedup_fast_vs_cold": 10000.0,
			"cold_burst_kds_hits": 2
		},
		"table5": {
			"rows": [{"nodes": 4, "requests_per_sec": 1000.0}]
		}
	}`)
}

// currentDoc builds a results map equivalent to what run() accumulates,
// by round-tripping raw JSON (compareBaseline re-marshals anyway).
func currentDoc(t *testing.T, raw string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(raw), &m); err != nil {
		t.Fatal(err)
	}
	out := map[string]any{}
	for k, v := range m {
		out[k] = v
	}
	return out
}

func TestCompareBaselineClean(t *testing.T) {
	cur := currentDoc(t, `{
		"table4": {
			"rows": [{"mode": "fast-path", "clients": 4, "verifications_per_sec": 90000.0}],
			"speedup_fast_vs_cold": 9000.0,
			"cold_burst_kds_hits": 2
		},
		"table5": {"rows": [{"nodes": 4, "requests_per_sec": 900.0}]}
	}`)
	regs, err := compareBaseline(cur, baselineDoc(t), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("clean run flagged: %v", regs)
	}
}

func TestCompareBaselineCatchesRegressions(t *testing.T) {
	cur := currentDoc(t, `{
		"table4": {
			"rows": [{"mode": "fast-path", "clients": 4, "verifications_per_sec": 100.0}],
			"speedup_fast_vs_cold": 3.0,
			"cold_burst_kds_hits": 40
		},
		"table5": {"rows": [{"nodes": 4, "requests_per_sec": 10.0}]}
	}`)
	regs, err := compareBaseline(cur, baselineDoc(t), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 4 {
		t.Errorf("regressions = %d (%v), want 4", len(regs), regs)
	}
}

// Experiments missing on either side are skipped, not failed — the
// baseline may predate a table.
func TestCompareBaselineSkipsMissing(t *testing.T) {
	cur := currentDoc(t, `{"table5": {"rows": [{"nodes": 4, "requests_per_sec": 1.0}]}}`)
	regs, err := compareBaseline(cur, currentDoc(t, `{"table4": {"speedup_fast_vs_cold": 10.0}}`), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("disjoint docs flagged: %v", regs)
	}
}

func TestRunBaselineBadJSON(t *testing.T) {
	dir := t.TempDir()
	bad := dir + "/bad.json"
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-quick", "-table", "4", "-baseline", bad}, io.Discard); err == nil {
		t.Error("unparseable baseline accepted")
	}
}

// countersOnly runs Table 4 once and writes a baseline holding only its
// machine-independent counters. A run compared against its own timings
// is a stopwatch test (it failed under parallel package load); compared
// against its own counters it must be clean on any machine.
func countersOnly(t *testing.T, path string) {
	t.Helper()
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-json", "-table", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Table4 struct {
			ColdBurstKDSHits int64 `json:"cold_burst_kds_hits"`
		} `json:"table4"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunMergedBaselines: repeated -baseline flags merge per-experiment
// documents — the CI shape where each table pins its own file.
func TestRunMergedBaselines(t *testing.T) {
	dir := t.TempDir()
	self := dir + "/table4.json"
	countersOnly(t, self)
	// A second baseline for a table not in this run: merged in, then
	// skipped by the comparison.
	other := dir + "/table5.json"
	if err := os.WriteFile(other,
		[]byte(`{"table5": {"rows": [{"nodes": 4, "requests_per_sec": 1e12}]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-quick", "-json", "-table", "4",
		"-baseline", self, "-baseline", other}, io.Discard); err != nil {
		t.Errorf("merged baselines regressed: %v", err)
	}
}

// TestRunBaselineEndToEnd: a run's counters regressed against themselves
// are clean, and against a baseline one KDS round trip cheaper they fail
// — counters are compared strictly, with no tolerance.
func TestRunBaselineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	self := dir + "/self.json"
	countersOnly(t, self)
	if err := run([]string{"-quick", "-json", "-table", "4", "-baseline", self}, io.Discard); err != nil {
		t.Errorf("self-baseline regressed: %v", err)
	}

	impossible := dir + "/impossible.json"
	if err := os.WriteFile(impossible,
		[]byte(`{"table4": {"cold_burst_kds_hits": 1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-quick", "-json", "-table", "4", "-baseline", impossible},
		io.Discard); err == nil {
		t.Error("a baseline one KDS round trip cheaper passed")
	}
}
