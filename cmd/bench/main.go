// Command bench snapshots the repository's headline benchmark timings to a
// dated JSON file, so performance can be compared across commits without
// re-parsing `go test -bench` output:
//
//	bench               writes BENCH_<yyyy-mm-dd>.json (SRing on all benchmarks)
//	bench -full         also times the three baseline methods
//	bench -o file.json  writes to an explicit path
//	bench -tag pr123    writes BENCH_<yyyy-mm-dd>-pr123.json
//	bench -force        overwrites an existing snapshot (refused otherwise)
//	bench -milp         enables the exact MILP assignment during timing
//	bench -milp-timeout 2s
//	                    bounds each exact solve (the decomposed sweep runs
//	                    several per synthesis)
//	bench -decompose    with -milp, runs the cluster-decomposed assignment
//	bench -apps D64,D128
//	                    benchmarks the named registry apps instead of the
//	                    seven paper benchmarks
//	bench -cluster-trials 8
//	                    caps SRing's initial clustering trials (0 =
//	                    unlimited, the paper's behaviour) — the knob that
//	                    keeps the 128-node apps inside a CI smoke budget
//	bench -j 1,4        times each pair at several Parallelism settings
//
//	bench -compare old.json new.json
//	                    prints a benchstat-style delta table (ns/op,
//	                    allocs/op, stage p99, milp_gap) over the entries the
//	                    snapshots share and exits non-zero when any entry
//	                    regressed more than -threshold (default 20%); see
//	                    compare.go
//
// Observability: -telemetry addr serves live /metrics and /debug/pprof/
// while the benchmarks run, and -trace-chrome file.json runs one traced
// SRing pass after the timings and writes it as Perfetto-loadable Chrome
// trace-event JSON. Each entry additionally records the p50/p99 of the
// five pipeline stages (stage_ns), which -compare gates on.
//
// Each entry carries ns/op plus the allocation counts from the Go
// benchmark harness (testing.Benchmark), one entry per method/benchmark
// pair, named like "Synthesize/MWD/SRing" — or, with more than one -j
// value, per parallelism setting, like "Synthesize/MWD/SRing/j=4". With
// -milp, entries also record the solver's relative optimality gap
// (milp_gap, 0 = proven optimal) and whether the wall-clock budget cut
// the search off (time_limit_hit).
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"sring"
	"sring/internal/benchfmt"
	"sring/internal/cli"
)

// benchResult condenses a testing.BenchmarkResult plus any synthesis error.
type benchResult struct {
	nsPerOp     float64
	allocsPerOp int64
	bytesPerOp  int64
	n           int
	err         error
}

// testingBenchmark times fn with the standard benchmark harness (adaptive
// iteration counts, allocation accounting).
func testingBenchmark(fn func() error) benchResult {
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fn(); err != nil {
				runErr = err
				b.SkipNow()
			}
		}
	})
	if runErr != nil {
		return benchResult{err: runErr}
	}
	return benchResult{
		nsPerOp:     float64(r.NsPerOp()),
		allocsPerOp: r.AllocsPerOp(),
		bytesPerOp:  r.AllocedBytesPerOp(),
		n:           r.N,
	}
}

// The snapshot schema lives in internal/benchfmt, shared with cmd/loadgen;
// the local names are kept as aliases so this package reads like before.
type (
	entry      = benchfmt.Entry
	stagePct   = benchfmt.StagePct
	snapshot   = benchfmt.Snapshot
	cacheBench = benchfmt.CacheBench
)

// stageNames are the pipeline stages whose registry histograms bench
// snapshots per entry, in pipeline order.
var stageNames = benchfmt.StageNames

// stagePercentiles extracts the per-stage p50/p99 from a bracketed registry
// delta; nil when no stage recorded (a cancelled run).
func stagePercentiles(d *sring.RegistrySnap) map[string]stagePct {
	out := make(map[string]stagePct, len(stageNames))
	for _, s := range stageNames {
		h := d.Histograms["pipeline.stage."+s+".ns"]
		if h == nil || h.Count == 0 {
			continue
		}
		out[s] = stagePct{P50: h.P50, P99: h.P99}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// counterPrefixes selects which registry counters a bench entry snapshots:
// the branch-and-cut internals that explain a gap or node-count shift.
var counterPrefixes = []string{"milp.cuts.", "lp.rows."}

// solverCounters extracts the selected counter deltas; nil when none fired
// (a run without the MILP).
func solverCounters(d *sring.RegistrySnap) map[string]int64 {
	var out map[string]int64
	for name, v := range d.Counters {
		if v == 0 {
			continue
		}
		for _, p := range counterPrefixes {
			if strings.HasPrefix(name, p) {
				if out == nil {
					out = make(map[string]int64)
				}
				out[name] = v
				break
			}
		}
	}
	return out
}

// measureCache times the cold-vs-warm sweep: every selected app under
// three loss-parameter variants, twice, sharing one cache.
func measureCache(ctx context.Context, apps []*sring.Application, baseOpt sring.Options) (*cacheBench, error) {
	techs := []sring.Tech{sring.DefaultTech(), sring.DefaultTech(), sring.DefaultTech()}
	techs[1].SplitRatioDB = 3.5
	techs[2].PropagationDBPerMM = 0.1
	cache := sring.NewCache()
	pass := func() (time.Duration, error) {
		start := time.Now()
		for _, app := range apps {
			for _, tech := range techs {
				opt := baseOpt
				opt.Tech = tech
				opt.Cache = cache
				opt.Parallelism = 1
				if _, err := sring.SynthesizeContext(ctx, app, sring.MethodSRing, opt); err != nil {
					return 0, fmt.Errorf("%s: %w", app.Name, err)
				}
			}
		}
		return time.Since(start), nil
	}
	cold, err := pass()
	if err != nil {
		return nil, err
	}
	warm, err := pass()
	if err != nil {
		return nil, err
	}
	hits, misses := cache.Stats()
	cb := &cacheBench{ColdNs: cold.Nanoseconds(), WarmNs: warm.Nanoseconds(), Hits: hits, Misses: misses}
	if hits+misses > 0 {
		cb.HitRate = float64(hits) / float64(hits+misses)
	}
	return cb, nil
}

func main() {
	var (
		out       = flag.String("o", "", "output file (default BENCH_<yyyy-mm-dd>[-<tag>].json)")
		tag       = flag.String("tag", "", "suffix for the default output name: BENCH_<yyyy-mm-dd>-<tag>.json")
		force     = flag.Bool("force", false, "overwrite an existing snapshot file")
		full      = flag.Bool("full", false, "also benchmark the ORNoC/CTORing/XRing baselines")
		milp      = flag.Bool("milp", false, "enable the exact MILP wavelength assignment")
		milpLimit = flag.Duration("milp-timeout", sring.DefaultMILPTimeLimit, "per-solve MILP time limit")
		cutRounds = flag.Int("cut-rounds", 0, "with -milp, cutting-plane rounds per fractional node (0: solver default, negative: disable cuts)")
		decompose = flag.Bool("decompose", false, "with -milp, run the cluster-decomposed exact assignment")
		appsFlag  = flag.String("apps", "", "comma-separated registry app names to benchmark (default: the seven paper benchmarks)")
		trials    = flag.Int("cluster-trials", 0, "cap SRing's initial clustering trials (0 = unlimited, the paper's behaviour)")
		jstr      = flag.String("j", "0", "comma-separated Parallelism settings to time (0 = all CPUs, 1 = sequential), e.g. 1,4")
		compare   = flag.Bool("compare", false, "compare two snapshots: bench -compare old.json new.json")
		threshold = flag.Float64("threshold", 0.20, "with -compare, the relative ns/op / allocs/op / stage-p99 growth that counts as a regression")
		chrome    = flag.String("trace-chrome", "", "after the benchmarks, run one traced SRing pass and write it as Chrome trace-event JSON to this file")
		telemetry = flag.String("telemetry", "", "serve live telemetry (Prometheus /metrics, /debug/pprof/) on this address")
		teleHold  = flag.Duration("telemetry-hold", 0, "with -telemetry, keep the endpoint serving this long after the snapshot is written")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants exactly two snapshot paths, got %d", flag.NArg()))
		}
		if *threshold <= 0 {
			fatal(fmt.Errorf("-threshold must be positive, got %v", *threshold))
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), *threshold); err != nil {
			fatal(err)
		}
		return
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	jvals, err := parseJobs(*jstr)
	if err != nil {
		fatal(err)
	}

	// The traced -trace-chrome pass runs after the timings so tracing cannot
	// perturb them; its recorder also backs the -telemetry /trace.json.
	var rec *sring.Recorder
	if *chrome != "" {
		rec = sring.NewRecorder()
	}
	if *telemetry != "" {
		shutdown, err := cli.ServeTelemetry(ctx, os.Stderr, "bench", *telemetry, *teleHold, rec.Snapshot)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
	}

	date := time.Now().Format("2006-01-02")
	path := *out
	if path == "" {
		if *tag != "" {
			path = fmt.Sprintf("BENCH_%s-%s.json", date, *tag)
		} else {
			path = fmt.Sprintf("BENCH_%s.json", date)
		}
	}
	if !*force {
		if _, err := os.Stat(path); err == nil {
			fatal(fmt.Errorf("%s already exists; pass -force to overwrite or -tag to pick another name", path))
		}
	}

	methods := []sring.Method{sring.MethodSRing}
	if *full {
		methods = sring.Methods()
	}
	appsToRun := sring.Benchmarks()
	if *appsFlag != "" {
		appsToRun = nil
		for _, name := range strings.Split(*appsFlag, ",") {
			a, err := sring.Benchmark(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			appsToRun = append(appsToRun, a)
		}
	}
	baseOpt := sring.Options{UseMILP: *milp, DecomposeAssign: *decompose, MILPTimeLimit: *milpLimit, CutRounds: *cutRounds, ClusterTrials: *trials}

	snap := snapshot{
		Date:      date,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		MILP:      *milp,
		Decompose: *decompose,
	}
	for _, app := range appsToRun {
		for _, m := range methods {
			for _, j := range jvals {
				app, m, j := app, m, j
				opt := baseOpt
				opt.Parallelism = j
				var last *sring.Design
				before := sring.DefaultRegistry().Snapshot()
				r := testingBenchmark(func() error {
					d, err := sring.SynthesizeContext(ctx, app, m, opt)
					last = d
					return err
				})
				stageDelta := sring.DefaultRegistry().Snapshot().Sub(before)
				if r.err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s/%s: %v\n", app.Name, m, r.err)
					os.Exit(1)
				}
				name := fmt.Sprintf("Synthesize/%s/%s", app.Name, m)
				if len(jvals) > 1 {
					name = fmt.Sprintf("%s/j=%d", name, j)
				}
				e := entry{
					Name:        name,
					Parallelism: j,
					NsPerOp:     r.nsPerOp,
					AllocsPerOp: r.allocsPerOp,
					BytesPerOp:  r.bytesPerOp,
					Runs:        r.n,
					StageNs:     stagePercentiles(stageDelta),
					Counters:    solverCounters(stageDelta),
				}
				milpNote := ""
				if last != nil && last.AssignStats != nil && last.AssignStats.MILPRan {
					gap := last.AssignStats.MILPGap
					// An infinite gap (no dual bound before the time limit)
					// is not representable in JSON; leave the field null so
					// the snapshot still writes.
					if !math.IsInf(gap, 0) && !math.IsNaN(gap) {
						e.MILPGap = &gap
					}
					e.MILPNodes = int64(last.AssignStats.MILPNodes)
					e.TimeLimitHit = last.AssignStats.MILPTimeLimitHit
					milpNote = fmt.Sprintf("  gap=%.4f", gap)
					if e.TimeLimitHit {
						milpNote += " (time limit)"
					}
				}
				snap.Entries = append(snap.Entries, e)
				fmt.Printf("%-32s %12.0f ns/op %10d allocs/op%s\n", entryLabel(name, snap.NumCPU), r.nsPerOp, r.allocsPerOp, milpNote)
				if len(e.StageNs) > 0 {
					fmt.Printf("%-32s", "")
					for _, s := range stageNames {
						if p, ok := e.StageNs[s]; ok {
							fmt.Printf("  %s p50/p99 %s/%s", s,
								time.Duration(p.P50).Round(time.Microsecond),
								time.Duration(p.P99).Round(time.Microsecond))
						}
					}
					fmt.Println()
				}
			}
		}
	}

	cb, err := measureCache(ctx, appsToRun, baseOpt)
	if err != nil {
		fatal(err)
	}
	snap.Cache = cb
	fmt.Printf("%-32s %12d ns cold %12d ns warm   %d hits / %d misses\n",
		"Cache/SRing/sweep", cb.ColdNs, cb.WarmNs, cb.Hits, cb.Misses)

	if err := snap.Write(path, true); err != nil {
		fatal(err)
	}
	fmt.Printf("snapshot written to %s\n", path)

	if *chrome != "" {
		// One traced SRing pass over the selected apps, outside the timing
		// loops: worker spans land on their internal/par thread tracks.
		for _, app := range appsToRun {
			opt := baseOpt
			opt.Recorder = rec
			if _, err := sring.SynthesizeContext(ctx, app, sring.MethodSRing, opt); err != nil {
				fatal(err)
			}
		}
		cf, err := os.Create(*chrome)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteChromeTrace(cf); err != nil {
			cf.Close()
			fatal(err)
		}
		if err := cf.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("chrome trace written to %s (load at ui.perfetto.dev)\n", *chrome)
	}
}

// parseJobs parses the -j comma list ("1,4") into parallelism values.
func parseJobs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad -j value %q: want a comma list of non-negative integers", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
