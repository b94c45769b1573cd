package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func rec(workload string, metrics map[string]float64) record {
	r := record{Perfbench: 1, Workload: workload, result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}}
	for k, v := range metrics {
		r.Metrics[k] = metricValue{Value: v, Unit: lookupDef(k).Unit}
	}
	return r
}

func TestCompare(t *testing.T) {
	base := []record{rec("table1", map[string]float64{"op_ref_ms_p50": 100, "ops_per_ref_s": 10})}
	cases := []struct {
		name    string
		cur     []record
		wantErr string
	}{
		{"same", []record{rec("table1", map[string]float64{"op_ref_ms_p50": 100, "ops_per_ref_s": 10})}, ""},
		{"within bound", []record{rec("table1", map[string]float64{"op_ref_ms_p50": 101, "ops_per_ref_s": 9.95})}, ""},
		{"improved", []record{rec("table1", map[string]float64{"op_ref_ms_p50": 50, "ops_per_ref_s": 20})}, ""},
		{"slower", []record{rec("table1", map[string]float64{"op_ref_ms_p50": 150, "ops_per_ref_s": 10})}, "regressions: table1/op_ref_ms_p50"},
		{"less throughput", []record{rec("table1", map[string]float64{"op_ref_ms_p50": 100, "ops_per_ref_s": 5})}, "regressions: table1/ops_per_ref_s"},
		{"metric missing", []record{rec("table1", map[string]float64{"op_ref_ms_p50": 100})}, "table1/ops_per_ref_s only in old"},
		{"nothing shared", []record{rec("exact", map[string]float64{"op_ref_ms_p50": 100, "ops_per_ref_s": 10})}, "result sets differ"},
	}
	for _, c := range cases {
		_, err := compareRecords(base, c.cur)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
		}
	}
}

// Two empty-metric sets share no pair; that is a failure, not a pass.
func TestCompareNothingToCompare(t *testing.T) {
	a := []record{rec("table1", nil)}
	if _, err := compareRecords(a, a); err == nil || !strings.Contains(err.Error(), "share no") {
		t.Fatalf("comparing nothing: error %v", err)
	}
}

func TestCompareRejectsFailedRuns(t *testing.T) {
	bad := rec("table1", map[string]float64{"op_ref_ms_p50": 100})
	bad.Correct, bad.Failed = false, 1
	if _, err := compareRecords([]record{rec("table1", map[string]float64{"op_ref_ms_p50": 100})}, []record{bad}); err == nil {
		t.Fatal("a run that failed its checks was compared")
	}
}

// compare reads the record lines out of captured standard output and uses
// medians across runs.
func TestCompareMainReadsRecords(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...record) string {
		var b strings.Builder
		for _, r := range recs {
			r := r
			if err := emit(&b, &r); err != nil {
				t.Fatal(err)
			}
			b.WriteString("some other line\n")
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	old := write("old", rec("exact", map[string]float64{"op_ref_ms_p50": 100}), rec("exact", map[string]float64{"op_ref_ms_p50": 300}),
		rec("exact", map[string]float64{"op_ref_ms_p50": 110}))
	cur := write("new", rec("exact", map[string]float64{"op_ref_ms_p50": 112}))
	var out, errs strings.Builder
	if code := run(context.Background(), []string{"compare", old, cur}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	slow := write("slow", rec("exact", map[string]float64{"op_ref_ms_p50": 200}))
	if code := run(context.Background(), []string{"compare", old, slow}, &out, &errs); code != 1 {
		t.Fatalf("regression exit %d, want 1", code)
	}
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, []byte("no records here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run(context.Background(), []string{"compare", old, empty}, &out, &errs); code != 1 {
		t.Fatalf("empty side exit %d, want 1", code)
	}
}
