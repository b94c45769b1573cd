// Command perfbench is the repository's benchmark. It drives the synthesis
// library and the in-process HTTP service from one process, checks every
// output it gets, and prints its metrics as JSON.
//
//	perfbench --workload table1|exact|serve --seed N --seconds S --trace 0|1
//	perfbench compare OLD NEW
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// replays each op stage by stage and reports per-layer metrics, writing
// its spans to --trace-out. The last line of standard output is the result
// object; the line before it is the full record (provenance included) that
// compare reads. See README.md for the workloads and metrics, and run.sh
// for the build.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	measure  time.Duration
	trace    bool
	traceOut string
	log      io.Writer
	cal      *calibrator
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	raw               map[string]float64 // metric name → value
	notes             map[string]float64 // diagnostics for the record line
}

type workloadFunc func(ctx context.Context, cfg config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"table1": runTable1,
	"exact":  runExact,
	"serve":  runServe,
}

// result is the final output line: exactly these four keys, which harnesses
// running the benchmark parse.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full output of one run: the result plus what produced it.
// compare reads these lines.
type record struct {
	Perfbench  int                `json:"perfbench"` // record format version
	Workload   string             `json:"workload"`
	Trace      bool               `json:"trace"`
	Provenance provenance         `json:"provenance"`
	Notes      map[string]float64 `json:"notes,omitempty"`
	result
}

type provenance struct {
	Commit     string  `json:"commit"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// Parallelism is the synthesis worker count and Connections the serve
	// client's connection cap; both are at most nproc.
	Parallelism int `json:"parallelism"`
	Connections int `json:"connections"`
}

// synthParallelism is the one synthesis worker every workload uses.
const synthParallelism = 1

// benchProcs is the GOMAXPROCS a workload runs under. On one P the
// program's goroutines, the benchmark's client included, hand off on one
// thread and never wait for a second CPU, so the figures hold when the host
// takes the other CPUs away (README.md, "Steadiness").
const benchProcs = 1

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed (serve's generated netlists derive from it)")
	seconds := fs.Float64("seconds", 10, "measurement length in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced stage-by-stage run reporting per-layer metrics")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/perfbench/trace-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wf, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		traceOut: *traceOut,
		log:      stderr,
	}
	if cfg.traceOut == "" {
		cfg.traceOut = fmt.Sprintf(".bench_build/perfbench/trace-%s.json", cfg.workload)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs))
	cal, err := newCalibrator()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer cal.close()
	cfg.cal = cal
	out, err := wf(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	mets, err := collect(defs, out.raw)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rec := record{
		Perfbench:  1,
		Workload:   cfg.workload,
		Trace:      cfg.trace,
		Provenance: provenanceOf(cfg),
		Notes:      out.notes,
		result: result{
			Correct:   out.failed == 0,
			Attempted: out.attempted,
			Failed:    out.failed,
			Metrics:   mets,
		},
	}
	printSummary(stderr, &rec)
	if err := emit(stdout, &rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if out.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d ops failed a check\n", cfg.workload, out.failed, out.attempted)
		return 1
	}
	return 0
}

// emit writes the record line, then the result line.
func emit(w io.Writer, rec *record) error {
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	last, err := json.Marshal(&rec.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, last)
	return err
}

func printSummary(w io.Writer, rec *record) {
	p := rec.Provenance
	fmt.Fprintf(w, "perfbench %s trace=%v seed=%d seconds=%g commit=%s nproc=%d gomaxprocs=%d %s\n",
		rec.Workload, rec.Trace, p.Seed, p.Seconds, p.Commit, p.NumCPU, p.GOMAXPROCS, p.GoVersion)
	fmt.Fprintf(w, "  attempted %d, failed %d, failed_ratio %g\n", rec.Attempted, rec.Failed,
		ratioOr(float64(rec.Failed), float64(rec.Attempted), 0))
	for _, name := range sortedKeys(rec.Metrics) {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(rec.Notes) {
		fmt.Fprintf(w, "  note %-25s %14.6g\n", name, rec.Notes[name])
	}
}

// provenanceOf describes the host and build. The commit comes from the
// PERFBENCH_COMMIT environment variable, which run.sh sets when the
// checkout is a git repository.
func provenanceOf(cfg config) provenance {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return provenance{
		Commit:      commit,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Seed:        cfg.seed,
		Seconds:     cfg.measure.Seconds(),
		Parallelism: synthParallelism,
		Connections: serveConns,
	}
}

// failures counts failed ops and logs the first few reasons.
type failures struct {
	n   int
	log io.Writer
}

const maxLoggedFailures = 20

func (f *failures) add(err error) {
	f.n++
	if f.n <= maxLoggedFailures {
		fmt.Fprintf(f.log, "perfbench: check failed: %v\n", err)
	}
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median of their times in ref seconds (see calib.go).
const setupReps = 3

// setupTime is the median set-up time in seconds: ref, CPU and wall.
type setupTime struct{ ref, cpu, wall float64 }

// timedSetup runs setup setupReps times, each between two calibrations, and
// returns the last state with the median set-up times; every earlier state
// is torn down.
func timedSetup[S any](cal *calibrator, setup func() (S, error), teardown func(S)) (S, setupTime, error) {
	var state S
	var samples []calSample
	var cpus, walls []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && teardown != nil {
			teardown(state)
		}
		cal.run()
		start := now()
		s, err := setup()
		if err != nil {
			return state, setupTime{}, err
		}
		wall, cpu := start.since()
		samples = append(samples, cal.sample(cpu))
		cpus, walls = append(cpus, cpu.Seconds()), append(walls, wall.Seconds())
		state = s
	}
	cal.run()
	return state, setupTime{ref: median(cal.refAll(samples)) / 1000, cpu: median(cpus), wall: median(walls)}, nil
}

var errNoOps = errors.New("no op completed in the measurement window")
