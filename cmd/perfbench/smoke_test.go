package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// A short run of every workload, untraced and traced, must print every
// metric its mode defines, each with its unit, and fail no check.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w, "--seed", "7", "--seconds", "1.5",
					"--trace", trace, "--trace-out", filepath.Join(t.TempDir(), "spans.json")}
				if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   *bool                  `json:"correct"`
					Attempted *int                   `json:"attempted"`
					Failed    *int                   `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
					t.Fatalf("result %s: want correct, attempted >= 1, failed 0", lines[len(lines)-1])
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, %d defined", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
					}
				}
				if trace == "1" && w != "serve" && res.Metrics["trace.coverage"].Value < 0.9 {
					t.Errorf("named layer spans cover %.3f of an op, want at least 0.9", res.Metrics["trace.coverage"].Value)
				}
			})
		}
	}
}

// Without a known workload and a trace mode of 0 or 1, the benchmark refuses
// to run and prints no result.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{nil, {"--workload", "nope"}, {"--workload", "table1", "--trace", "2"}} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
