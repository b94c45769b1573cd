package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; metrics_test.go
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics carry no bound.
	Bound float64
}

// endToEnd are the metrics a user of the synthesizer sees. Every workload
// reports every one of them; README.md gives each metric's meaning per
// workload. Times are in ref ms: CPU time (see cpuTime) scaled by a
// calibration run just before it (see calib.go), which a busy or slow host
// does not stretch. CPU and wall times are in the record's notes.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "mem_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "op_ref_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ref_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_ref_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "heavy_ref_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's metrics. Self-time shares are a layer's
// self time over the workload's traced op time, so a layer the workload
// never calls reads 0 rather than a fabricated time; counts are per op
// unless the unit says otherwise.
var perLayer = []metricDef{
	{Name: "cluster.construct_share", Unit: "share", Better: "lower"},
	{Name: "baseline.construct_share", Unit: "share", Better: "lower"},
	{Name: "layout.route_share", Unit: "share", Better: "lower"},
	{Name: "loss.price_share", Unit: "share", Better: "lower"},
	{Name: "wavelength.heuristic_share", Unit: "share", Better: "lower"},
	{Name: "wavelength.milp_share", Unit: "share", Better: "lower"},
	{Name: "milp.solve_share", Unit: "share", Better: "lower"},
	{Name: "pdn.build_share", Unit: "share", Better: "lower"},
	{Name: "design.metrics_share", Unit: "share", Better: "lower"},
	{Name: "design.validate_share", Unit: "share", Better: "lower"},
	{Name: "netlist.lookup_share", Unit: "share", Better: "lower"},
	{Name: "pipeline.cached_synth_share", Unit: "share", Better: "lower"},
	{Name: "pipeline.keybuild_share", Unit: "share", Better: "lower"},
	{Name: "serve.decode_share", Unit: "share", Better: "lower"},
	{Name: "serve.encode_share", Unit: "share", Better: "lower"},
	{Name: "serve.http_share", Unit: "share", Better: "lower"},
	{Name: "serve.miss_time_share", Unit: "share", Better: "lower"},
	{Name: "lp.root_share", Unit: "share", Better: "lower"},
	{Name: "cluster.absorptions", Unit: "count", Better: "lower"},
	{Name: "cluster.probes", Unit: "count", Better: "lower"},
	{Name: "milp.nodes", Unit: "count", Better: "lower"},
	{Name: "milp.incumbents", Unit: "count", Better: "higher"},
	{Name: "milp.cut_applied_ratio", Unit: "ratio", Better: "higher"},
	{Name: "milp.nodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "milp.gap", Unit: "ratio", Better: "lower"},
	{Name: "lp.root_pivots", Unit: "count", Better: "lower"},
	{Name: "lp.pivots_per_node", Unit: "count", Better: "lower"},
	{Name: "lp.refactorizations", Unit: "count", Better: "lower"},
	{Name: "lp.refactor_ok_ratio", Unit: "ratio", Better: "higher"},
	{Name: "lp.warmstart_ok_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pipeline.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pipeline.cache_evictions", Unit: "count/kreq", Better: "lower"},
	{Name: "serve.rejected", Unit: "count/kreq", Better: "lower"},
	{Name: "trace.coverage", Unit: "share", Better: "higher"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"table1", "exact", "serve"}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns a workload's raw values into the reported metric map. Every
// definition must have a finite value: a missing or non-finite metric is a
// benchmark bug, reported as an error rather than printed.
func collect(defs []metricDef, raw map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := raw[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range raw {
		if findDef(defs, name) == nil {
			return nil, fmt.Errorf("metric %s is not defined", name)
		}
	}
	return out, nil
}

func findDef(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

// lookupDef finds a metric in either table.
func lookupDef(name string) *metricDef {
	if d := findDef(endToEnd, name); d != nil {
		return d
	}
	return findDef(perLayer, name)
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
