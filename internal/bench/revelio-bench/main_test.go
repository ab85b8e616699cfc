package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	cases := [][]string{
		{"-quick", "-table", "1"},
		{"-quick", "-table", "2"},
		{"-quick", "-table", "3"},
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
	if err := run([]string{"-quick", "-json", "-table", "2"}, &buf); err != nil {
		t.Fatalf("run -json: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	table2, ok := doc["table2"].(map[string]any)
	if !ok {
		t.Fatalf("JSON lacks table2 object: %v", doc)
	}
	if _, ok := table2["Timings"]; !ok {
		t.Error("table2 JSON lacks Timings")
	}
	if strings.Contains(buf.String(), "Table 2:") {
		t.Error("-json output still contains rendered tables")
	}
}

// TestRunBadFlag: a flag or a table or figure number the command does not
// know is an error, never a run that does nothing and exits 0. The chaos
// sweeps live in internal/chaos, so no -chaos flag is known here.
func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"-chaos"},
		{"-chaos.seed", "7"},
		{"-chaos.out", "schedules.txt"},
		{"-table", "x"},
		{"-table", "4"},
		{"-table", "6"},
		{"-table", "2", "-table", "7"},
		{"-figure", "4"},
		{"-figure", "7"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestRunMultipleTables: the repeatable -table flag runs exactly the
// named experiments in one process.
func TestRunMultipleTables(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-json", "-table", "2", "-table", "5"}, &buf); err != nil {
		t.Fatalf("run -table 2 -table 5: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	for _, want := range []string{"table2", "table5"} {
		if _, ok := doc[want].(map[string]any); !ok {
			t.Errorf("JSON lacks %s", want)
		}
	}
	for _, not := range []string{"table1", "table3", "fig5", "fig6", "ablation_pbkdf2"} {
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
