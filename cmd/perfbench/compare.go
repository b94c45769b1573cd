package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// compareMain implements `perfbench compare OLD NEW`. Each file holds the
// standard output of one or more runs; their record lines are grouped by
// (workload, metric) and compared by median. The comparison fails — exit
// status 1 — when the two sides share no pair, when a metric is present on
// one side only, when a run failed its checks, or when an end-to-end metric
// worsens by more than its bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD NEW")
		return 2
	}
	old, err := readRecords(args[0])
	if err == nil {
		var cur []record
		if cur, err = readRecords(args[1]); err == nil {
			var rows []compareRow
			rows, err = compareRecords(old, cur)
			printRows(stdout, rows)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	return 0
}

// readRecords returns every record line in the file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, `{"perfbench":`) {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no perfbench records", path)
	}
	return out, nil
}

type metricKey struct{ workload, metric string }

// compareRow is one (workload, metric) pair's verdict.
type compareRow struct {
	key        metricKey
	old, cur   float64
	worse      float64 // relative worsening in the metric's bad direction; negative is better
	bound      float64 // 0 for per-layer metrics, which are not gated
	regression bool
}

func medians(recs []record) (map[metricKey]float64, error) {
	vals := make(map[metricKey][]float64)
	for _, r := range recs {
		if !r.Correct {
			return nil, fmt.Errorf("a %s run failed %d of %d checks; its numbers are not comparable", r.Workload, r.Failed, r.Attempted)
		}
		for name, m := range r.Metrics {
			k := metricKey{r.Workload, name}
			vals[k] = append(vals[k], m.Value)
		}
	}
	out := make(map[metricKey]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out, nil
}

// compareRecords compares two result sets; the error reports why they
// cannot be compared or which metrics regressed.
func compareRecords(old, cur []record) ([]compareRow, error) {
	mo, err := medians(old)
	if err != nil {
		return nil, fmt.Errorf("old: %w", err)
	}
	mc, err := medians(cur)
	if err != nil {
		return nil, fmt.Errorf("new: %w", err)
	}
	var missing []string
	for k := range mo {
		if _, ok := mc[k]; !ok {
			missing = append(missing, fmt.Sprintf("%s/%s only in old", k.workload, k.metric))
		}
	}
	for k := range mc {
		if _, ok := mo[k]; !ok {
			missing = append(missing, fmt.Sprintf("%s/%s only in new", k.workload, k.metric))
		}
	}
	var rows []compareRow
	var regressed []string
	for k, o := range mo {
		c, ok := mc[k]
		if !ok {
			continue
		}
		row := compareRow{key: k, old: o, cur: c}
		d := lookupDef(k.metric)
		if d == nil {
			missing = append(missing, fmt.Sprintf("%s/%s is not a perfbench metric", k.workload, k.metric))
			continue
		}
		row.bound = d.Bound
		row.worse = relWorse(o, c, d.Better)
		if d.Bound > 0 && row.worse > d.Bound {
			row.regression = true
			regressed = append(regressed, fmt.Sprintf("%s/%s %+.1f%% (bound %.0f%%)", k.workload, k.metric, 100*row.worse, 100*d.Bound))
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].key.workload != rows[j].key.workload {
			return rows[i].key.workload < rows[j].key.workload
		}
		return rows[i].key.metric < rows[j].key.metric
	})
	sort.Strings(missing)
	sort.Strings(regressed)
	switch {
	case len(missing) > 0:
		return rows, fmt.Errorf("result sets differ: %s", strings.Join(missing, "; "))
	case len(rows) == 0:
		return rows, errors.New("the result sets share no (workload, metric) pair")
	case len(regressed) > 0:
		return rows, fmt.Errorf("regressions: %s", strings.Join(regressed, "; "))
	}
	return rows, nil
}

// relWorse is how much worse cur is than old, relative to old, in the
// metric's bad direction.
func relWorse(old, cur float64, better string) float64 {
	d := cur - old
	if better == "higher" {
		d = -d
	}
	if old == 0 {
		switch {
		case d == 0:
			return 0
		case d > 0:
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	return d / math.Abs(old)
}

func printRows(w io.Writer, rows []compareRow) {
	for _, r := range rows {
		verdict := "ok"
		switch {
		case r.bound == 0:
			verdict = "(per-layer, not gated)"
		case r.regression:
			verdict = "REGRESSION"
		}
		fmt.Fprintf(w, "%-8s %-30s %14.6g -> %-14.6g %+8.1f%% worse  %s\n",
			r.key.workload, r.key.metric, r.old, r.cur, 100*r.worse, verdict)
	}
}
