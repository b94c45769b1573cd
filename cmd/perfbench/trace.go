package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sring/internal/cluster"
	"sring/internal/ctoring"
	"sring/internal/design"
	"sring/internal/loss"
	"sring/internal/milp"
	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/ornoc"
	"sring/internal/pdn"
	"sring/internal/pipeline"
	"sring/internal/wavelength"
	"sring/internal/xring"
)

// span is one timed call recorded by the benchmark around a layer's public
// function. Spans nest workload → op → stage → solver through Parent.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // op id; -1 outside any op
	Parent int    `json:"parent"` // index into the span list; -1 for the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// The span names that delimit units of work. Every other span is a layer.
const (
	spanOp    = "op"    // one op of the workload
	spanHeavy = "heavy" // one heavy call outside the op (exact: MPEG's B&B)
	spanCheck = "check" // the benchmark's output checks, outside the op
)

// tracer keeps spans in memory for one traced run; it is used from a single
// goroutine. A nil tracer records nothing.
type tracer struct {
	t0     time.Time
	spans  []span
	stack  []int
	op     int
	nextOp int
}

func newTracer(workload string) *tracer {
	t := &tracer{t0: time.Now(), op: -1}
	t.begin("workload:" + workload)
	return t
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.t0))})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %s ended out of order", t.spans[id].Name))
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// do times f as one span.
func (t *tracer) do(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// beginUnit opens an op, heavy or check span under a fresh op id.
func (t *tracer) beginUnit(kind string) int {
	t.nextOp++
	t.op = t.nextOp
	return t.begin(kind)
}

func (t *tracer) endUnit(id int) {
	t.end(id)
	t.op = -1
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's duration minus its children's.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// unitDurations returns the durations (ms) of every span with that name.
func (t *tracer) unitDurations(kind string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == kind {
			out = append(out, ms(time.Duration(s.dur())))
		}
	}
	return out
}

// layerSelf sums self time (ns) per layer name over spans inside units of
// the given kind.
func (t *tracer) layerSelf(kind string) map[string]int64 {
	self := t.selfTimes()
	unit := make(map[int]bool)
	for _, s := range t.spans {
		if s.Name == kind && s.Parent >= 0 {
			unit[s.Op] = true
		}
	}
	out := make(map[string]int64)
	for i, s := range t.spans {
		if s.Name != kind && unit[s.Op] {
			out[s.Name] += self[i]
		}
	}
	return out
}

// coverage is the smallest share, over spans of the given kind, of the
// unit's wall time covered by its named child spans.
func (t *tracer) coverage(kind string) float64 {
	covered := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && t.spans[s.Parent].Name == kind {
			covered[s.Parent] += s.dur()
		}
	}
	min := 1.0
	for i, s := range t.spans {
		if s.Name == kind && s.dur() > 0 {
			if c := float64(covered[i]) / float64(s.dur()); c < min {
				min = c
			}
		}
	}
	return min
}

// writeJSON writes the spans for offline reading.
func (t *tracer) writeJSON(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]interface{}{"spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLayers writes a self-time table for the spans inside units of kind.
func (t *tracer) printLayers(w io.Writer, kind string) {
	self := t.layerSelf(kind)
	units := t.unitDurations(kind)
	if len(units) == 0 {
		return
	}
	var total float64
	for _, d := range units {
		total += d
	}
	names := sortedKeys(self)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "traced %s spans: %d, %.1f ms each on average\n", kind, len(units), total/float64(len(units)))
	for _, n := range names {
		selfMS := ms(time.Duration(self[n]))
		fmt.Fprintf(w, "  %-28s self %10.2f ms/%s  share %.4f\n", n, selfMS/float64(len(units)), kind, selfMS/total)
	}
}

// constructors maps each method to its pipeline constructor, the public
// entry of its construction layer.
var constructors = map[string]pipeline.Constructor{
	"SRing":   cluster.Construct,
	"ORNoC":   ornoc.Construct,
	"CTORing": ctoring.Construct,
	"XRing":   xring.Construct,
}

// replaySynthesize runs one synthesis stage by stage through each layer's
// public function, timing every call. It follows the sequence of
// pipeline.Synthesize without a cache; the caller compares the design's
// metrics with the library's own result.
func replaySynthesize(ctx context.Context, tr *tracer, root *obs.Span, app *netlist.Application, method string, opt pipeline.Options) (*design.Design, error) {
	ctor, ok := constructors[method]
	if !ok {
		return nil, fmt.Errorf("no constructor for method %q", method)
	}
	tech, err := loss.Normalize(opt.Tech)
	if err != nil {
		return nil, err
	}
	layer := "baseline.construct"
	if method == "SRing" {
		layer = "cluster.construct"
	}
	var con *pipeline.Construction
	if err := tr.do(layer, func() (err error) {
		con, err = ctor(ctx, app, opt, root)
		return err
	}); err != nil {
		return nil, err
	}
	var lay *design.LayoutResult
	if err := tr.do("layout.route", func() (err error) {
		lay, err = design.RouteLayout(app, con.Rings, root)
		return err
	}); err != nil {
		return nil, err
	}
	var infos []wavelength.PathInfo
	if err := tr.do("loss.price", func() (err error) {
		infos, err = design.PriceLoss(app, con.Rings, con.Paths, lay, tech, con.MRRFullComplement, root)
		return err
	}); err != nil {
		return nil, err
	}
	var a *wavelength.Assignment
	var stats *wavelength.Stats
	w := con.Weights
	if con.SplitterWeightFromTech {
		w.SplitterStageDB = tech.SplitterStageDB()
	}
	if err := tr.do("wavelength.heuristic", func() (err error) {
		if con.Preset != nil {
			a, stats, err = design.UsePreset(infos, con.Preset, root)
			return err
		}
		a, stats, err = wavelength.AssignContext(ctx, infos, wavelength.Options{
			Weights: w, Parallelism: opt.Parallelism, Obs: root, Registry: opt.Registry,
		})
		return err
	}); err != nil {
		return nil, err
	}
	if con.Preset == nil && opt.UseMILP {
		if a, stats, err = replayMILP(ctx, tr, root, infos, a, stats, w, opt); err != nil {
			return nil, err
		}
	}
	var network *pdn.Network
	cfg := pdn.Config{Style: con.PDNStyle, ForceNodeSplitter: con.ForceNodeSplitter, RoutePhysical: opt.PhysicalPDN}
	if err := tr.do("pdn.build", func() (err error) {
		network, err = design.BuildPDN(app, infos, a, cfg, con.PDNAllTwoSender, root)
		return err
	}); err != nil {
		return nil, err
	}
	return &design.Design{
		App: app, Method: method, Levels: con.Levels, Rings: con.Rings, Infos: infos,
		Assignment: a, Layout: lay, PDN: network, Tech: tech, AssignStats: stats,
	}, nil
}

// The exact-assignment defaults of wavelength.AssignContext: the palette
// gets one wavelength beyond the heuristic's, and instances above the
// binary-count gate skip the MILP.
const (
	milpExtraLambda = 1
	milpMaxBinaries = 500
)

// replayMILP is the exact branch of wavelength.AssignContext (monolithic,
// no decomposition, no oracle) spelled out through wavelength.BuildMILP and
// milp.SolveContext so each is timed on its own.
func replayMILP(ctx context.Context, tr *tracer, root *obs.Span, infos []wavelength.PathInfo, heur *wavelength.Assignment, stats *wavelength.Stats, w wavelength.Weights, opt pipeline.Options) (*wavelength.Assignment, *wavelength.Stats, error) {
	numLambda := heur.NumLambda + milpExtraLambda
	if len(infos)*numLambda > milpMaxBinaries {
		return heur, stats, nil
	}
	id := tr.begin("wavelength.milp")
	defer tr.end(id)
	m, err := wavelength.BuildMILP(infos, numLambda, w)
	if err != nil {
		return nil, nil, err
	}
	mopt := milp.Options{
		TimeLimit: opt.MILPTimeLimit, Parallelism: opt.Parallelism, CutRounds: opt.CutRounds,
		BranchPriority: m.Priority, Incumbent: m.IncumbentVector(infos, heur, w),
		Obs: root, Registry: opt.Registry,
	}
	var res *milp.Result
	if err := tr.do("milp.solve", func() (err error) {
		res, err = milp.SolveContext(ctx, m.Prob, mopt)
		return err
	}); err != nil {
		return nil, nil, err
	}
	st := *stats
	st.MILPRan = true
	st.MILPExact = res.Status == milp.Optimal
	st.MILPBound = res.Bound
	st.MILPNodes = res.Nodes
	st.MILPGap = res.Gap()
	st.MILPTimeLimitHit = res.TimeLimitHit
	st.MILPNodeFingerprint = res.NodeFingerprint
	best := heur
	switch res.Status {
	case milp.Optimal, milp.Feasible:
		cand, err := m.Decode(res.X)
		if err != nil {
			return nil, nil, err
		}
		if err := wavelength.Verify(infos, cand); err != nil {
			return nil, nil, fmt.Errorf("MILP assignment: %w", err)
		}
		if o := wavelength.Evaluate(infos, cand, w); o.Value < st.Final.Value-1e-9 {
			best = cand
			st.Final = o
		}
	case milp.Infeasible:
		return nil, nil, fmt.Errorf("MILP infeasible with %d wavelengths", numLambda)
	}
	best.Normalize()
	return best, &st, nil
}

// counterSums accumulates obs.Recorder counters over traced calls.
type counterSums map[string]int64

func (c counterSums) add(rec *obs.Recorder) {
	for k, v := range rec.Snapshot().Counters {
		c[k] += v
	}
}

// histCount is the number of observations in a registry histogram.
func histCount(snap *obs.RegistrySnap, name string) int64 {
	if h := snap.Histograms[name]; h != nil {
		return h.Count
	}
	return 0
}

// ratioOr returns num/den, or def when den is zero.
func ratioOr(num, den, def float64) float64 {
	if den == 0 {
		return def
	}
	return num / den
}

// baseLayer fills the per-layer metrics every workload reports from its
// traced op spans and counters; workloads then overwrite the entries their
// own measurements define. Units of work counted per op are normalized by
// ops.
func baseLayer(tr *tracer, ops int, counters counterSums, probes int64, untracedP50 float64) map[string]float64 {
	raw := make(map[string]float64)
	for _, d := range perLayer {
		raw[d.Name] = 0
	}
	durs := tr.unitDurations(spanOp)
	var total float64
	for _, d := range durs {
		total += d
	}
	self := tr.layerSelf(spanOp)
	share := func(layer string) float64 {
		return ratioOr(ms(time.Duration(self[layer])), total, 0)
	}
	for _, l := range []string{"cluster.construct", "baseline.construct", "layout.route", "loss.price",
		"wavelength.heuristic", "wavelength.milp", "milp.solve", "pdn.build", "design.metrics",
		"netlist.lookup", "pipeline.cached_synth", "serve.decode", "serve.encode"} {
		raw[l+"_share"] = share(l)
	}
	checks := tr.layerSelf(spanCheck)
	raw["design.validate_share"] = ratioOr(ms(time.Duration(checks["design.validate"])), total, 0)
	n := float64(ops)
	raw["cluster.absorptions"] = ratioOr(float64(counters["cluster.absorptions"]), n, 0)
	raw["cluster.probes"] = ratioOr(float64(probes), n, 0)
	raw["milp.nodes"] = ratioOr(float64(counters["milp.nodes"]), n, 0)
	raw["milp.incumbents"] = ratioOr(float64(counters["milp.incumbents"]), n, 0)
	raw["milp.cut_applied_ratio"] = ratioOr(float64(counters["milp.cuts.applied"]), float64(counters["milp.cuts.separated"]), 1)
	raw["lp.refactor_ok_ratio"] = 1
	raw["lp.warmstart_ok_ratio"] = 1
	raw["pipeline.cache_hit_ratio"] = 0
	raw["trace.coverage"] = tr.coverage(spanOp)
	raw["trace.overhead_ratio"] = ratioOr(median(durs)-untracedP50, untracedP50, 0)
	return raw
}

// lpHealth fills the lp.* per-layer metrics from the counters of the
// traced calls that ran the LP.
func lpHealth(raw map[string]float64, c counterSums) {
	pivots := c["lp.pivots.phase1"] + c["lp.pivots.phase2"] + c["lp.pivots.dual"]
	raw["lp.pivots_per_node"] = ratioOr(float64(pivots), float64(c["milp.nodes"]), 0)
	raw["lp.refactorizations"] = float64(c["lp.sparse.refactorizations"])
	raw["lp.refactor_ok_ratio"] = 1 - ratioOr(float64(c["lp.sparse.singular_refactors"]), float64(c["lp.sparse.refactorizations"]), 0)
	warm := c["lp.warmstart.solves"]
	raw["lp.warmstart_ok_ratio"] = ratioOr(float64(warm), float64(warm+c["lp.warmstart.fallbacks"]), 1)
}
