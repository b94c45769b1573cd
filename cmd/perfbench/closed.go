package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"sring"
	"sring/internal/design"
	"sring/internal/lp"
	"sring/internal/milp"
	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/pipeline"
	"sring/internal/wavelength"
)

// cell is one synthesis inside an op.
type cell struct {
	app    string
	method string
	opt    pipeline.Options
}

func (c cell) key() string { return c.app + "/" + c.method }

// cellOut is one cell's result and CPU time (lookup, synthesis, metrics).
type cellOut struct {
	d   *design.Design
	m   *design.Metrics
	cpu time.Duration
}

// closedSpec is a closed-loop workload: one client runs its op back to back.
type closedSpec struct {
	cells []cell
	// heavyCell names the cell whose time is reported as heavy_ms_p50; when
	// empty, mpeg supplies the heavy call instead.
	heavyCell string
	mpeg      *mpegBudget
	// check is the workload's own output check, beyond Validate and the
	// equality with the warm-up op's result.
	check func(c cell, o cellOut) error
}

func table1Spec() *closedSpec {
	s := &closedSpec{heavyCell: "D26/SRing"}
	for _, app := range netlist.Benchmarks() {
		for _, m := range sring.Methods() {
			s.cells = append(s.cells, cell{app: app.Name, method: string(m), opt: pipeline.Options{Parallelism: synthParallelism}})
		}
	}
	s.check = func(c cell, o cellOut) error { return checkGolden(c.app, c.method, o.m) }
	return s
}

func exactSpec() *closedSpec {
	s := &closedSpec{mpeg: &mpegBudget{}}
	for _, app := range []string{"MWD", "VOPD", "8PM-24"} {
		s.cells = append(s.cells, cell{app: app, method: "SRing", opt: pipeline.Options{UseMILP: true, Parallelism: synthParallelism}})
	}
	s.check = func(c cell, o cellOut) error { return checkExact(c.app, o.d) }
	return s
}

func runTable1(ctx context.Context, cfg config) (*outcome, error) {
	return runClosed(ctx, cfg, table1Spec())
}

func runExact(ctx context.Context, cfg config) (*outcome, error) {
	return runClosed(ctx, cfg, exactSpec())
}

// runOp synthesizes every cell through the public API, looking each
// application up by name once per op.
func (s *closedSpec) runOp(ctx context.Context) ([]cellOut, error) {
	outs := make([]cellOut, len(s.cells))
	apps := make(map[string]*netlist.Application)
	for i, c := range s.cells {
		start := cpuTime()
		app, ok := apps[c.app]
		if !ok {
			a, err := netlist.ByName(c.app)
			if err != nil {
				return nil, err
			}
			app, apps[c.app] = a, a
		}
		d, err := sring.SynthesizeContext(ctx, app, sring.Method(c.method), c.opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.key(), err)
		}
		m, err := d.Metrics()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.key(), err)
		}
		outs[i] = cellOut{d: d, m: m, cpu: cpuTime() - start}
	}
	return outs, nil
}

// checkOp validates every design of an op, runs the workload check, and
// compares each result with the reference op's. tr, when non-nil, times
// each Validate call.
func (s *closedSpec) checkOp(tr *tracer, outs, ref []cellOut) error {
	for i, c := range s.cells {
		var err error
		tr.do("design.validate", func() error { err = outs[i].d.Validate(); return nil })
		if err != nil {
			return fmt.Errorf("%s: %w", c.key(), err)
		}
		if err := s.check(c, outs[i]); err != nil {
			return err
		}
		if ref != nil {
			if err := sameMetrics(c.key(), outs[i].m, ref[i].m); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *closedSpec) heavyIndex() int {
	for i, c := range s.cells {
		if c.key() == s.heavyCell {
			return i
		}
	}
	return -1
}

// closedSetup prepares the workload's inputs and runs one untimed warm-up
// op, whose checked results become the reference for every later op.
func (s *closedSpec) setup(ctx context.Context) ([]cellOut, error) {
	if s.mpeg != nil {
		if err := s.mpeg.prepare(ctx); err != nil {
			return nil, err
		}
	}
	ref, err := s.runOp(ctx)
	if err != nil {
		return nil, err
	}
	if err := s.checkOp(nil, ref, nil); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return ref, nil
}

func runClosed(ctx context.Context, cfg config, s *closedSpec) (*outcome, error) {
	if cfg.trace {
		return traceClosed(ctx, cfg, s)
	}
	cal := cfg.cal
	ref, setup, err := timedSetup(cal, func() ([]cellOut, error) { return s.setup(ctx) }, nil)
	if err != nil {
		return nil, err
	}
	fail := &failures{log: cfg.log}
	hi := s.heavyIndex()
	// Op and heavy times are in ref ms, each scaled by a calibration run
	// right before it (see calib.go); CPU and wall times go to the record's
	// notes.
	var opMS, heavyMS []calSample
	var opCPUMS, opWallMS, memMB []float64
	var opTime, heavyTime time.Duration
	attempted := 0
	runtime.GC()
	mem := startHeapSampler(0)
	start, startHost := now(), readHostClock()
	deadline := start.wall.Add(cfg.measure)
	for time.Now().Before(deadline) {
		attempted++
		if s.mpeg != nil && heavyTime < opTime {
			cal.run()
			t := now()
			res, a, err := s.mpeg.solve(ctx, nil, nil, nil)
			_, cpu := t.since()
			heavyTime += cpu
			if err == nil {
				err = s.mpeg.check(res, a)
			}
			if err != nil {
				fail.add(err)
				continue
			}
			heavyMS = append(heavyMS, cal.sample(cpu))
			continue
		}
		cal.run()
		mem.take()
		t := now()
		outs, err := s.runOp(ctx)
		wall, cpu := t.since()
		opTime += cpu
		peak := mem.take()
		if err == nil {
			err = s.checkOp(nil, outs, ref)
		}
		if err != nil {
			fail.add(err)
			continue
		}
		opMS, opCPUMS, opWallMS = append(opMS, cal.sample(cpu)), append(opCPUMS, ms(cpu)), append(opWallMS, ms(wall))
		memMB = append(memMB, peak)
		if hi >= 0 {
			heavyMS = append(heavyMS, cal.sample(outs[hi].cpu))
		}
	}
	cal.run()
	mem.stop()
	if len(opMS) == 0 || len(heavyMS) == 0 {
		return nil, errNoOps
	}
	ops, heavy := cal.refAll(opMS), cal.refAll(heavyMS)
	var opRef float64
	for _, v := range ops {
		opRef += v
	}
	raw := map[string]float64{
		"setup_s":          setup.ref,
		"mem_peak_mb":      median(memMB),
		"op_ref_ms_p50":    median(ops),
		"op_ref_ms_p90":    quantile(ops, 0.9),
		"ops_per_ref_s":    float64(len(ops)) / (opRef / 1000),
		"heavy_ref_ms_p50": median(heavy),
	}
	notes := map[string]float64{"ops": float64(len(opMS)), "heavy_calls": float64(len(heavyMS)),
		"setup_cpu_s": setup.cpu, "setup_wall_s": setup.wall,
		"op_cpu_ms_p50": median(opCPUMS), "op_wall_ms_p50": median(opWallMS)}
	runNotes(start, startHost, cal, notes)
	if s.mpeg != nil && s.mpeg.first != nil {
		notes["mpeg_gap"] = s.mpeg.first.Gap()
		notes["mpeg_nodes_per_ref_s"] = float64(s.mpeg.first.Nodes) / (median(heavy) / 1000)
	}
	return &outcome{attempted: attempted, failed: fail.n, raw: raw, notes: notes}, nil
}

// traceClosed is the traced run of a closed-loop workload: untraced library
// ops alternate with stage-by-stage replays of the same op, and every replay
// must reproduce the library's design metrics.
func traceClosed(ctx context.Context, cfg config, s *closedSpec) (*outcome, error) {
	ref, err := s.setup(ctx)
	if err != nil {
		return nil, err
	}
	tr := newTracer(cfg.workload)
	reg := obs.NewRegistry()
	fail := &failures{log: cfg.log}
	attempted := 0
	var heavyRaw map[string]float64
	var rootMS float64
	if s.mpeg != nil {
		attempted += 2
		if heavyRaw, rootMS, err = s.traceExactExtras(ctx, tr, reg); err != nil {
			fail.add(err)
		}
	}
	counters := counterSums{}
	var untraced []float64
	ops := 0
	deadline := time.Now().Add(cfg.measure)
	for ops == 0 || time.Now().Before(deadline) {
		attempted += 2
		start := time.Now()
		outs, err := s.runOp(ctx)
		d := time.Since(start)
		if err == nil {
			err = s.checkOp(nil, outs, ref)
		}
		if err != nil {
			fail.add(err)
		} else {
			untraced = append(untraced, ms(d))
		}

		rec := obs.New()
		root := rec.StartSpan("op")
		id := tr.beginUnit(spanOp)
		outs, err = s.replayOp(ctx, tr, root, reg)
		tr.endUnit(id)
		root.End()
		counters.add(rec)
		ops++
		if err == nil {
			cid := tr.beginUnit(spanCheck)
			err = s.checkOp(tr, outs, ref)
			tr.endUnit(cid)
		}
		if err != nil {
			fail.add(fmt.Errorf("replay: %w", err))
		}
	}
	raw := baseLayer(tr, ops, counters, histCount(reg.Snapshot(), "cluster.probe.ns"), median(untraced))
	for k, v := range heavyRaw {
		raw[k] = v
	}
	raw["lp.root_share"] = ratioOr(rootMS, median(tr.unitDurations(spanOp)), 0)
	tr.printLayers(cfg.log, spanOp)
	tr.printLayers(cfg.log, spanHeavy)
	if err := tr.writeJSON(cfg.traceOut); err != nil {
		return nil, err
	}
	notes := map[string]float64{"traced_ops": float64(ops), "untraced_op_ms_p50": median(untraced),
		"traced_op_ms_p50": median(tr.unitDurations(spanOp))}
	return &outcome{attempted: attempted, failed: fail.n, raw: raw, notes: notes}, nil
}

// replayOp is runOp stage by stage, each call timed as a span.
func (s *closedSpec) replayOp(ctx context.Context, tr *tracer, root *obs.Span, reg *obs.Registry) ([]cellOut, error) {
	outs := make([]cellOut, len(s.cells))
	apps := make(map[string]*netlist.Application)
	for i, c := range s.cells {
		app, ok := apps[c.app]
		if !ok {
			if err := tr.do("netlist.lookup", func() (err error) { app, err = netlist.ByName(c.app); return err }); err != nil {
				return nil, err
			}
			apps[c.app] = app
		}
		opt := c.opt
		opt.Registry = reg
		d, err := replaySynthesize(ctx, tr, root, app, c.method, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.key(), err)
		}
		var m *design.Metrics
		if err := tr.do("design.metrics", func() (err error) { m, err = d.Metrics(); return err }); err != nil {
			return nil, err
		}
		outs[i] = cellOut{d: d, m: m}
	}
	return outs, nil
}

// traceExactExtras runs the exact workload's traced calls outside its ops:
// the 8PM-24 root relaxation through the LP solver, whose median time it
// returns, and one node-budgeted MPEG solve whose counters give the milp
// and lp health metrics.
func (s *closedSpec) traceExactExtras(ctx context.Context, tr *tracer, reg *obs.Registry) (map[string]float64, float64, error) {
	raw := map[string]float64{}
	rootMS, pivots, err := rootLP(ctx, tr)
	if err != nil {
		return raw, 0, err
	}
	raw["lp.root_pivots"] = float64(pivots)

	rec := obs.New()
	root := rec.StartSpan("heavy")
	id := tr.beginUnit(spanHeavy)
	start := time.Now()
	res, a, err := s.mpeg.solve(ctx, tr, root, reg)
	d := time.Since(start)
	tr.endUnit(id)
	root.End()
	if err == nil {
		err = s.mpeg.check(res, a)
	}
	if err != nil {
		return raw, rootMS, err
	}
	c := counterSums{}
	c.add(rec)
	lpHealth(raw, c)
	raw["milp.cut_applied_ratio"] = ratioOr(float64(c["milp.cuts.applied"]), float64(c["milp.cuts.separated"]), 1)
	raw["milp.gap"] = res.Gap()
	raw["milp.nodes_per_s"] = float64(res.Nodes) / d.Seconds()
	return raw, rootMS, nil
}

// rootPasses is how many times the root relaxation is solved; the median
// is reported.
const rootPasses = 3

// rootLP solves the 8PM-24 exact model's root relaxation with the LP
// package's public solver, singleton rows turned into variable bounds the
// way the branch and bound prepares its relaxation (its presolve's
// fixings are not applied).
func rootLP(ctx context.Context, tr *tracer) (float64, int, error) {
	app, err := netlist.ByName("8PM-24")
	if err != nil {
		return 0, 0, err
	}
	infos, w, err := pipeline.PathInfos(ctx, app, "SRing", pipeline.Options{Parallelism: synthParallelism})
	if err != nil {
		return 0, 0, err
	}
	heur := wavelength.Improve(infos, wavelength.DSATUR(infos), w)
	m, err := wavelength.BuildMILP(infos, heur.NumLambda+milpExtraLambda, w)
	if err != nil {
		return 0, 0, err
	}
	rows, lo, hi := boundRows(&m.Prob.LP)
	var times []float64
	pivots := 0
	for i := 0; i < rootPasses; i++ {
		var sol *lp.Solution
		start := time.Now()
		err := tr.do("lp.root", func() error {
			s, err := lp.NewSolver(rows)
			if err != nil {
				return err
			}
			sol, err = s.SolveBounded(lo, hi, time.Time{})
			return err
		})
		times = append(times, ms(time.Since(start)))
		if err != nil {
			return 0, 0, err
		}
		if sol.Status != lp.Optimal {
			return 0, 0, fmt.Errorf("8PM-24 root LP: status %v", sol.Status)
		}
		pivots = sol.Phase1Pivots + sol.Phase2Pivots
	}
	return median(times), pivots, nil
}

// boundRows returns p without its single-variable rows, and the variable
// bounds those rows imply on top of the default [0, ∞).
func boundRows(p *lp.Problem) (*lp.Problem, []float64, []float64) {
	lo, hi := make([]float64, p.NumVars), make([]float64, p.NumVars)
	for i := range hi {
		hi[i] = math.Inf(1)
	}
	q := &lp.Problem{NumVars: p.NumVars, Objective: p.Objective}
	for _, c := range p.Constraints {
		if len(c.Coeffs) != 1 {
			q.Constraints = append(q.Constraints, c)
			continue
		}
		for v, a := range c.Coeffs {
			if a == 0 {
				q.Constraints = append(q.Constraints, c)
				continue
			}
			b, rel := c.RHS/a, c.Rel
			if a < 0 && rel != lp.EQ {
				rel = map[lp.Rel]lp.Rel{lp.LE: lp.GE, lp.GE: lp.LE}[rel]
			}
			if rel != lp.GE {
				hi[v] = math.Min(hi[v], b)
			}
			if rel != lp.LE {
				lo[v] = math.Max(lo[v], b)
			}
		}
	}
	return q, lo, hi
}

// The MPEG node budget: a fixed amount of branch-and-bound work in place of
// the pipeline's wall-clock budget, so the result is deterministic.
const (
	mpegNodeBudget = 150
	// mpegTimeLimit only guards against a hung solve; the node budget ends
	// every healthy one long before.
	mpegTimeLimit = 5 * time.Minute
)

// mpegBudget is MPEG's exact assignment seeded the way
// wavelength.AssignContext seeds it, solved under the node budget.
type mpegBudget struct {
	infos []wavelength.PathInfo
	w     wavelength.Weights
	heur  *wavelength.Assignment
	first *milp.Result // the run's first solve, which every later one must repeat
}

func (b *mpegBudget) prepare(ctx context.Context) error {
	app, err := netlist.ByName("MPEG")
	if err != nil {
		return err
	}
	b.infos, b.w, err = pipeline.PathInfos(ctx, app, "SRing", pipeline.Options{Parallelism: synthParallelism})
	if err != nil {
		return err
	}
	b.heur = wavelength.Improve(b.infos, wavelength.DSATUR(b.infos), b.w)
	return nil
}

// solve builds the model and runs the budgeted branch and bound; tr and
// root, when non-nil, trace it.
func (b *mpegBudget) solve(ctx context.Context, tr *tracer, root *obs.Span, reg *obs.Registry) (*milp.Result, *wavelength.Assignment, error) {
	id := tr.begin("wavelength.milp")
	defer tr.end(id)
	m, err := wavelength.BuildMILP(b.infos, b.heur.NumLambda+milpExtraLambda, b.w)
	if err != nil {
		return nil, nil, err
	}
	opt := milp.Options{
		NodeLimit: mpegNodeBudget, TimeLimit: mpegTimeLimit, Parallelism: synthParallelism,
		BranchPriority: m.Priority, Incumbent: m.IncumbentVector(b.infos, b.heur, b.w),
		Obs: root, Registry: reg,
	}
	var res *milp.Result
	if err := tr.do("milp.solve", func() (err error) { res, err = milp.SolveContext(ctx, m.Prob, opt); return err }); err != nil {
		return nil, nil, err
	}
	if res.X == nil {
		return nil, nil, fmt.Errorf("MPEG: no incumbent (status %v)", res.Status)
	}
	a, err := m.Decode(res.X)
	return res, a, err
}

// check verifies the incumbent and that the solve repeated the run's first
// one node for node.
func (b *mpegBudget) check(res *milp.Result, a *wavelength.Assignment) error {
	if err := wavelength.Verify(b.infos, a); err != nil {
		return fmt.Errorf("MPEG incumbent: %w", err)
	}
	if res.TimeLimitHit {
		return fmt.Errorf("MPEG: time limit hit before the %d-node budget", mpegNodeBudget)
	}
	if res.Status != milp.Optimal && res.Nodes != mpegNodeBudget {
		return fmt.Errorf("MPEG: explored %d nodes, budget %d", res.Nodes, mpegNodeBudget)
	}
	if b.first == nil {
		b.first = res
		return nil
	}
	if res.NodeFingerprint != b.first.NodeFingerprint || res.Gap() != b.first.Gap() {
		return fmt.Errorf("MPEG: solve not repeatable: fingerprint %x gap %g, first %x gap %g",
			res.NodeFingerprint, res.Gap(), b.first.NodeFingerprint, b.first.Gap())
	}
	return nil
}
