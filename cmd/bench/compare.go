package main

// Snapshot comparison: `bench -compare old.json new.json` prints a
// benchstat-style delta table for the entries the two snapshots share and
// exits non-zero when anything regressed beyond the threshold, turning the
// dated BENCH_*.json files from write-only records into a gate.
//
// A regression is:
//   - ns/op or allocs/op growing by more than -threshold (default 20%), or
//   - a pipeline stage's p99 latency growing by more than -threshold, when
//     the old p99 was at least 1 ms (see p99FloorNs), or
//   - the MILP optimality gap widening by more than one percentage point
//     (gaps are small ratios, frequently exactly 0, so a relative test
//     would divide by zero exactly where the comparison matters most), or
//   - MILP node throughput dropping by more than -threshold on entries
//     where both runs hit the time limit: with a fixed wall-clock budget
//     on both sides, explored nodes per budget is the solver's progress
//     rate, and a drop means the kernel got slower even if the gap
//     happens to round the same. A run that newly finishes within the
//     limit never gates — fewer nodes then means a smaller tree, not a
//     slower solver.
//
// Entries present in only one snapshot are listed but never gate — adding
// a benchmark must not fail the comparison that introduces it.
//
// A /j=N entry with N above a snapshot's num_cpu is labelled
// "oversubscribed": its workers outnumbered the host's cores, so it does
// not measure a parallel speedup. The label changes nothing about gating.

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"sring/internal/benchfmt"
)

// loadSnapshot reads one BENCH_*.json file.
func loadSnapshot(path string) (*snapshot, error) {
	return benchfmt.Load(path)
}

// gapRegressionTol is the absolute milp_gap widening that counts as a
// regression: one percentage point of relative optimality gap.
const gapRegressionTol = 0.01

// p99FloorNs is the old stage-p99 below which the per-stage latency gate
// stays silent: sub-millisecond stages flap too much at benchmark sample
// counts for a relative threshold to separate signal from scheduler noise.
const p99FloorNs = int64(1e6)

// oversubscribed reports whether name is a /j=N entry with N above numCPU
// (0, as in snapshots that predate the field, means unknown: never).
func oversubscribed(name string, numCPU int) bool {
	i := strings.LastIndex(name, "/j=")
	if i < 0 || numCPU <= 0 {
		return false
	}
	n, err := strconv.Atoi(name[i+len("/j="):])
	return err == nil && n > numCPU
}

// entryLabel is name as printed in tables: suffixed "(oversubscribed)" when
// any of the given snapshots' core counts oversubscribes it.
func entryLabel(name string, numCPUs ...int) string {
	for _, c := range numCPUs {
		if oversubscribed(name, c) {
			return name + " (oversubscribed)"
		}
	}
	return name
}

// deltaPct formats the relative change from o to n as benchstat does;
// "~" marks changes below one percent (noise at these sample counts).
func deltaPct(o, n float64) string {
	if o == 0 {
		if n == 0 {
			return "~"
		}
		return "+inf%"
	}
	d := (n - o) / o * 100
	if math.Abs(d) < 1 {
		return "~"
	}
	return fmt.Sprintf("%+.2f%%", d)
}

// compareSnapshots prints the delta table to stdout and returns the names
// of the entries that regressed beyond threshold (the fraction, e.g. 0.20).
func compareSnapshots(oldSnap, newSnap *snapshot, threshold float64) []string {
	oldByName := make(map[string]entry, len(oldSnap.Entries))
	for _, e := range oldSnap.Entries {
		oldByName[e.Name] = e
	}

	var regressed []string
	regress := func(o, n float64) bool {
		return o > 0 && n > o*(1+threshold)
	}

	fmt.Printf("%-50s %14s %14s %9s %12s %12s %9s %10s %10s %9s %10s %10s %9s\n",
		"name", "old ns/op", "new ns/op", "delta",
		"old allocs", "new allocs", "delta",
		"old nodes", "new nodes", "delta", "old gap", "new gap", "delta")
	for _, n := range newSnap.Entries {
		o, ok := oldByName[n.Name]
		if !ok {
			fmt.Printf("%-50s %14s %14.0f %9s %12s %12d %9s\n",
				entryLabel(n.Name, newSnap.NumCPU), "-", n.NsPerOp, "new", "-", n.AllocsPerOp, "new")
			continue
		}
		delete(oldByName, n.Name)

		var why []string
		if regress(o.NsPerOp, n.NsPerOp) {
			why = append(why, "ns/op")
		}
		if regress(float64(o.AllocsPerOp), float64(n.AllocsPerOp)) {
			why = append(why, "allocs/op")
		}
		for _, s := range stageNames {
			op, okO := o.StageNs[s]
			np, okN := n.StageNs[s]
			if okO && okN && op.P99 >= p99FloorNs && regress(float64(op.P99), float64(np.P99)) {
				why = append(why, "p99("+s+")")
			}
		}
		// Node-throughput gate: only meaningful when both runs were cut
		// off by the same wall-clock budget, so the node counts measure
		// rate rather than tree size.
		if o.TimeLimitHit && n.TimeLimitHit && o.MILPNodes > 0 &&
			float64(n.MILPNodes) < float64(o.MILPNodes)*(1-threshold) {
			why = append(why, "milp_nodes")
		}
		nodeCols := [3]string{"-", "-", ""}
		if o.MILPNodes > 0 || n.MILPNodes > 0 {
			nodeCols[0] = fmt.Sprintf("%d", o.MILPNodes)
			nodeCols[1] = fmt.Sprintf("%d", n.MILPNodes)
			nodeCols[2] = deltaPct(float64(o.MILPNodes), float64(n.MILPNodes))
		}
		gapCols := [3]string{"-", "-", ""}
		if o.MILPGap != nil && n.MILPGap != nil {
			gapCols[0] = fmt.Sprintf("%.4f", *o.MILPGap)
			gapCols[1] = fmt.Sprintf("%.4f", *n.MILPGap)
			switch {
			case *n.MILPGap > *o.MILPGap+gapRegressionTol:
				gapCols[2] = "WORSE"
				why = append(why, "milp_gap")
			case *o.MILPGap > *n.MILPGap+gapRegressionTol:
				gapCols[2] = "better"
			default:
				gapCols[2] = "~"
			}
		} else if n.MILPGap != nil {
			gapCols[1] = fmt.Sprintf("%.4f", *n.MILPGap)
		}

		fmt.Printf("%-50s %14.0f %14.0f %9s %12d %12d %9s %10s %10s %9s %10s %10s %9s\n",
			entryLabel(n.Name, oldSnap.NumCPU, newSnap.NumCPU), o.NsPerOp, n.NsPerOp, deltaPct(o.NsPerOp, n.NsPerOp),
			o.AllocsPerOp, n.AllocsPerOp,
			deltaPct(float64(o.AllocsPerOp), float64(n.AllocsPerOp)),
			nodeCols[0], nodeCols[1], nodeCols[2],
			gapCols[0], gapCols[1], gapCols[2])
		if len(why) > 0 {
			regressed = append(regressed, fmt.Sprintf("%s (%s)", n.Name, joinWhy(why)))
		}
	}
	for _, o := range oldSnap.Entries {
		if _, gone := oldByName[o.Name]; gone {
			fmt.Printf("%-50s %14.0f %14s %9s\n", entryLabel(o.Name, oldSnap.NumCPU), o.NsPerOp, "-", "gone")
		}
	}
	return regressed
}

// entryNameDiff returns the entry names present in only one snapshot, each
// side sorted in its snapshot's order. Such entries never gate — only the
// intersection is compared — but a silent mismatch would let a comparison
// "pass" while gating a different benchmark set than the reader assumes
// (a renamed app, a dropped method, snapshots from different producers), so
// runCompare warns about them.
func entryNameDiff(oldSnap, newSnap *snapshot) (onlyOld, onlyNew []string) {
	oldNames := make(map[string]bool, len(oldSnap.Entries))
	for _, e := range oldSnap.Entries {
		oldNames[e.Name] = true
	}
	newNames := make(map[string]bool, len(newSnap.Entries))
	for _, e := range newSnap.Entries {
		newNames[e.Name] = true
	}
	for _, e := range oldSnap.Entries {
		if !newNames[e.Name] {
			onlyOld = append(onlyOld, e.Name)
		}
	}
	for _, e := range newSnap.Entries {
		if !oldNames[e.Name] {
			onlyNew = append(onlyNew, e.Name)
		}
	}
	return onlyOld, onlyNew
}

func joinWhy(why []string) string {
	s := why[0]
	for _, w := range why[1:] {
		s += ", " + w
	}
	return s
}

// runCompare is the -compare entry point: load both snapshots and print the
// table. It fails if anything regressed beyond the threshold, and also if
// the snapshots share no entry: a gate that compared nothing must not pass.
func runCompare(oldPath, newPath string, threshold float64) error {
	oldSnap, err := loadSnapshot(oldPath)
	if err != nil {
		return err
	}
	newSnap, err := loadSnapshot(newPath)
	if err != nil {
		return err
	}
	regressed := compareSnapshots(oldSnap, newSnap, threshold)
	onlyOld, onlyNew := entryNameDiff(oldSnap, newSnap)
	shared := len(newSnap.Entries) - len(onlyNew)
	if len(onlyOld) > 0 || len(onlyNew) > 0 {
		fmt.Fprintf(os.Stderr, "bench: warning: snapshots cover different entry sets — only the %d shared entr%s gated\n",
			shared, plural(shared))
		for _, n := range onlyOld {
			fmt.Fprintf(os.Stderr, "  only in %s: %s\n", oldPath, n)
		}
		for _, n := range onlyNew {
			fmt.Fprintf(os.Stderr, "  only in %s: %s\n", newPath, n)
		}
	}
	if shared == 0 {
		return fmt.Errorf("%s and %s share no entry: nothing was compared", oldPath, newPath)
	}
	if len(regressed) > 0 {
		for _, r := range regressed {
			fmt.Fprintln(os.Stderr, "  ", r)
		}
		return fmt.Errorf("%d entr%s regressed more than %.0f%% (listed above)",
			len(regressed), plural(len(regressed)), threshold*100)
	}
	fmt.Printf("no regressions beyond %.0f%%\n", threshold*100)
	return nil
}

func plural(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}
