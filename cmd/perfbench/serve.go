package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"sring"
	"sring/internal/design"
	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/pipeline"
	"sring/internal/serve"
)

// The serve workload's traffic. Most requests name a serve.DefaultMix app
// (warm cache reads); one in missEvery, on average, is a generated random
// netlist, a cache miss that synthesizes, stores and evicts. Both the share
// and the cache budget are synthetic choices, not taken from recorded
// traffic: the run reports the share of request time the misses take
// (notes.miss_time_share, per-layer serve.miss_time_share) so the property
// the workload has is on record.
const (
	missEvery   = 100
	genNodes    = 12
	genMessages = 20
	// serveCacheBytes (1 MB) holds the warm mix (about 0.7 MB) and some
	// fifty generated entries: the set-up fills the rest with generated
	// entries, which then evict each other through the run, while the warm
	// entries, touched on every hit, stay.
	serveCacheBytes = 1 << 20
	// statWindow is the window over which the heap peak and the hit
	// quantiles are taken before their medians.
	statWindow = time.Second
)

// serveConns is the client's one connection. With one request in flight
// the client and the server take turns on a CPU instead of competing for
// both, so the figures do not halve when the host takes a CPU away.
const serveConns = 1

// serveReq is one request of the mix: a pre-encoded body plus what it asks
// for, so the response can be checked.
type serveReq struct {
	body  []byte
	named int // index into serveLoad.mix, or -1 for a generated netlist
	seed  int64
}

// serveLoad is the workload's fixed inputs: the named mix with each
// request's uncached library result, and the seeded request sequence.
type serveLoad struct {
	mix    []serve.Request
	bodies [][]byte
	ref    []*design.Metrics
	rng    splitmix
	// filled holds the answers to the generated requests with which each
	// set-up fills the cache, checked after the timed part.
	filled []generatedResp
}

func newServeLoad(ctx context.Context, seed int64) (*serveLoad, error) {
	l := &serveLoad{mix: serve.DefaultMix(), rng: splitmix{uint64(seed)}}
	for _, req := range l.mix {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		l.bodies = append(l.bodies, body)
		app, err := netlist.ByName(req.App)
		if err != nil {
			return nil, err
		}
		m, err := uncachedMetrics(ctx, app, req.Method)
		if err != nil {
			return nil, err
		}
		l.ref = append(l.ref, m)
	}
	return l, nil
}

// uncachedMetrics is the library's answer to a request, computed without
// the server and without a cache.
func uncachedMetrics(ctx context.Context, app *netlist.Application, method string) (*design.Metrics, error) {
	d, err := sring.SynthesizeContext(ctx, app, sring.Method(method), sring.Options{Parallelism: synthParallelism})
	if err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d.Metrics()
}

// next draws the next request of the sequence.
func (l *serveLoad) next() (serveReq, error) {
	r := l.rng.next()
	if r%missEvery == 0 {
		return generatedReq(&l.rng)
	}
	k := int((r / missEvery) % uint64(len(l.mix)))
	return serveReq{body: l.bodies[k], named: k}, nil
}

// generatedReq draws a generated netlist's seed from rng and encodes the
// request for it.
func generatedReq(rng *splitmix) (serveReq, error) {
	seed := int64(rng.next() >> 1)
	body, err := json.Marshal(serve.Request{
		Generate: &serve.GenerateSpec{Kind: "random", N: genNodes, M: genMessages, Seed: seed},
		Method:   "SRing",
	})
	return serveReq{body: body, named: -1, seed: seed}, err
}

func (l *serveLoad) sequence(n int) ([]serveReq, error) {
	reqs := make([]serveReq, n)
	for i := range reqs {
		var err error
		if reqs[i], err = l.next(); err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// splitmix is SplitMix64, the seeded generator of the request sequence.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// serveRig is a running serve.Server on loopback plus its client.
type serveRig struct {
	cache  *pipeline.Cache
	reg    *obs.Registry
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func bootServe() (*serveRig, error) {
	cache, err := pipeline.NewCacheWithConfig(pipeline.CacheConfig{MaxBytes: serveCacheBytes})
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv := &serve.Server{Cache: cache, Registry: reg, MaxParallelism: synthParallelism}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &serveRig{
		cache:  cache,
		reg:    reg,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String() + "/synthesize",
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
		}},
	}
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

// close stops the server and waits for its accept loop to return.
func (r *serveRig) close() {
	_ = r.hs.Close() // the listener's close error is of no interest once the run is over
	<-r.served
	r.client.CloseIdleConnections()
}

// post sends one request and decodes the response.
func (r *serveRig) post(ctx context.Context, body []byte) (*serve.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	var out serve.Response
	if err := json.Unmarshal(payload, &out); err != nil {
		return nil, err
	}
	if out.Metrics == nil {
		return nil, errors.New("response carries no metrics")
	}
	return &out, nil
}

// Set-up fills the cache with generated netlists drawn from fillSeed, the
// same in every run whatever its seed, so every set-up does the same work.
// maxFill bounds the requests it sends; about fifty fill the cache.
const (
	fillSeed = 0x5eed
	maxFill  = 1000
)

// boot starts a server, runs the cold pass that puts the named mix in its
// cache plus one warm pass, then sends generated requests until the cache
// first evicts. Named responses are checked as they arrive, generated ones
// after the timed part. The timed part so starts with the
// cache at the size it keeps, rather than growing — and the heap with it —
// through the run's first seconds.
func (l *serveLoad) boot(ctx context.Context) (*serveRig, error) {
	rig, err := bootServe()
	if err != nil {
		return nil, err
	}
	if err := l.fill(ctx, rig); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

func (l *serveLoad) fill(ctx context.Context, rig *serveRig) error {
	for pass := 0; pass < 2; pass++ {
		for k, body := range l.bodies {
			resp, err := rig.post(ctx, body)
			if err == nil {
				err = sameMetrics(requestName(l.mix[k]), resp.Metrics, l.ref[k])
			}
			if err != nil {
				return fmt.Errorf("set-up pass %d: %w", pass, err)
			}
		}
	}
	rng := splitmix{fillSeed}
	for i := 0; rig.cache.StatsSnapshot().Evictions == 0; i++ {
		if i == maxFill {
			return fmt.Errorf("set-up: the cache did not fill in %d generated requests", maxFill)
		}
		req, err := generatedReq(&rng)
		if err != nil {
			return err
		}
		resp, err := rig.post(ctx, req.body)
		if err != nil {
			return fmt.Errorf("set-up fill: %w", err)
		}
		l.filled = append(l.filled, generatedResp{seed: req.seed, metrics: resp.Metrics})
	}
	return nil
}

// checkFilled checks the answers of every set-up's fill requests, counting
// them and their failures into res.
func (l *serveLoad) checkFilled(ctx context.Context, res *closedResult, fail *failures) {
	res.attempted += len(l.filled)
	res.failed += checkAllGenerated(ctx, l.filled, fail)
	l.filled = nil
}

func requestName(r serve.Request) string { return r.App + "/" + r.Method }

// checkAllGenerated runs checkGeneratedOne over gen, after the timed part,
// and returns the number that failed.
func checkAllGenerated(ctx context.Context, gen []generatedResp, fail *failures) int {
	n := 0
	for _, g := range gen {
		if err := checkGeneratedOne(ctx, g.seed, g.metrics); err != nil {
			n++
			fail.add(err)
		}
	}
	return n
}

// checkGeneratedOne compares a generated request's answer with an uncached
// library synthesis of the same netlist.
func checkGeneratedOne(ctx context.Context, seed int64, got *design.Metrics) error {
	app, err := netlist.Random(genNodes, genMessages, seed)
	if err != nil {
		return err
	}
	want, err := uncachedMetrics(ctx, app, "SRing")
	if err != nil {
		return err
	}
	return sameMetrics(fmt.Sprintf("generated seed %d", seed), got, want)
}

func runServe(ctx context.Context, cfg config) (*outcome, error) {
	load, err := newServeLoad(ctx, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceServe(ctx, cfg, load)
	}
	rig, setup, err := timedSetup(cfg.cal, func() (*serveRig, error) { return load.boot(ctx) }, (*serveRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	fail := &failures{log: cfg.log}
	before, cacheBefore := rig.reg.Snapshot(), rig.cache.StatsSnapshot()
	runtime.GC()
	mem := startHeapSampler(statWindow)
	start, startHost := now(), readHostClock()
	res, err := load.closedPhase(ctx, rig, cfg.measure, cfg.cal, fail)
	mem.stop()
	cfg.cal.run()
	if err != nil {
		return nil, err
	}
	res.checkGenerated(ctx, fail)
	load.checkFilled(ctx, res, fail)
	hits := res.hits.Snapshot()
	if hits.Count == 0 || len(res.misses) == 0 {
		return nil, errNoOps
	}
	p50s, p90s := res.windowQuantiles(cfg.cal)
	hitRef, missRef := res.refSums(cfg.cal)
	raw := map[string]float64{
		"setup_s":          setup.ref,
		"mem_peak_mb":      median(mem.windows),
		"op_ref_ms_p50":    median(p50s),
		"op_ref_ms_p90":    median(p90s),
		"ops_per_ref_s":    float64(hits.Count+int64(len(res.misses))) / ((hitRef + missRef) / 1000),
		"heavy_ref_ms_p50": median(cfg.cal.refAll(res.misses)),
	}
	delta, cacheAfter := rig.reg.Snapshot().Sub(before), rig.cache.StatsSnapshot()
	stageHits, stageMisses := float64(delta.Counters["pipeline.cache.hits"]), float64(delta.Counters["pipeline.cache.misses"])
	notes := map[string]float64{
		"hit_wall_ms_p99": float64(hits.P99) / 1e6, "hit_wall_ms_p50": float64(hits.P50) / 1e6,
		"ops_per_wall_s": float64(hits.Count+int64(len(res.misses))) / res.elapsed.Seconds(),
		"setup_cpu_s":    setup.cpu, "setup_wall_s": setup.wall,
		"hits": float64(hits.Count), "misses": float64(len(res.misses)),
		"miss_time_share": ratioOr(missRef, hitRef+missRef, 0),
		"cache_bytes":     float64(cacheAfter.Bytes), "cache_evictions": float64(cacheAfter.Evictions - cacheBefore.Evictions),
		"cache_stage_hit_ratio": ratioOr(stageHits, stageHits+stageMisses, 0),
	}
	runNotes(start, startHost, cfg.cal, notes)
	return &outcome{attempted: res.attempted, failed: res.failed, raw: raw, notes: notes}, nil
}

// checkGenerated compares every generated answer of the phase with an
// uncached library synthesis of the same netlist.
func (r *closedResult) checkGenerated(ctx context.Context, fail *failures) {
	r.failed += checkAllGenerated(ctx, r.generated, fail)
}

// generatedResp is a generated request's answer, checked after the timed
// part.
type generatedResp struct {
	seed    int64
	metrics *design.Metrics
}

// closedResult is what a closed-loop phase measured. A request's time is
// the process's CPU time — client, server and the kernel's loopback work on
// their behalf — while it was in flight. Each one-second window starts with
// a calibration run, whose index the window's samples keep, and is
// converted to ref ms after the phase (see calib.go). Hit times are reduced
// to per-window quantiles as the windows close and the hits' wall latency
// lives in a fixed-size histogram, so the benchmark's own bookkeeping stays
// out of the heap it measures.
type closedResult struct {
	open              map[time.Duration][]float64 // hit CPU ms of windows not yet reduced
	openCal           map[time.Duration]int       // their calibration runs
	p50s, p90s        []calSample                 // per closed window
	hits              *obs.Histogram              // hit wall latency, ns
	misses            []calSample                 // generated request CPU time
	generated         []generatedResp
	hitNs, hitSynthNs int64              // summed hit wall latency and server-reported synthesis time
	cpuByCal          map[int][2]float64 // summed hit and generated CPU ms per calibration run
	attempted, failed int
	elapsed           time.Duration
}

// addHit records a hit sent at offset sent, reducing every window that
// ended at least a window before it: requests are sent in order, so later
// samples cannot land there.
func (r *closedResult) addHit(sent, lat time.Duration, s calSample) {
	w := sent / statWindow
	r.open[w] = append(r.open[w], s.cpuMS)
	r.openCal[w] = s.cal
	r.hits.RecordDuration(lat)
	for k, lats := range r.open {
		if k < w-1 {
			r.closeWindow(k, lats)
		}
	}
}

func (r *closedResult) closeWindow(k time.Duration, lats []float64) {
	c := r.openCal[k]
	r.p50s = append(r.p50s, calSample{cpuMS: quantile(lats, 0.5), cal: c})
	r.p90s = append(r.p90s, calSample{cpuMS: quantile(lats, 0.9), cal: c})
	delete(r.open, k)
	delete(r.openCal, k)
}

// add sums a request's CPU time under its calibration run.
func (r *closedResult) add(s calSample, miss bool) {
	sums := r.cpuByCal[s.cal]
	if miss {
		sums[1] += s.cpuMS
	} else {
		sums[0] += s.cpuMS
	}
	r.cpuByCal[s.cal] = sums
}

// windowQuantiles returns the windows' hit p50 and p90 in ref ms.
func (r *closedResult) windowQuantiles(cal *calibrator) ([]float64, []float64) {
	return cal.refAll(r.p50s), cal.refAll(r.p90s)
}

// refSums returns the summed time of the hits and of the generated
// requests, the cache misses, in ref ms.
func (r *closedResult) refSums(cal *calibrator) (hit, miss float64) {
	for c, sums := range r.cpuByCal {
		hit += cal.refMS(calSample{cpuMS: sums[0], cal: c})
		miss += cal.refMS(calSample{cpuMS: sums[1], cal: c})
	}
	return hit, miss
}

// closedPhase runs one client back to back for length: it sends the next
// request of the sequence as soon as the previous answer arrives, so a stall
// of the host delays only the request in flight. Named responses are
// checked as they arrive.
func (l *serveLoad) closedPhase(ctx context.Context, rig *serveRig, length time.Duration, cal *calibrator, fail *failures) (*closedResult, error) {
	res := &closedResult{open: make(map[time.Duration][]float64), openCal: make(map[time.Duration]int),
		hits: obs.NewHistogram(), cpuByCal: make(map[int][2]float64)}
	start := time.Now()
	window := time.Duration(-1)
	for {
		req, err := l.next()
		if err != nil {
			return nil, err
		}
		sent := time.Since(start)
		if sent >= length || ctx.Err() != nil {
			break
		}
		if w := sent / statWindow; w != window {
			cal.run()
			window, sent = w, time.Since(start)
		}
		t := now()
		resp, err := rig.post(ctx, req.body)
		lat, cpu := t.since()
		if err == nil && req.named >= 0 {
			err = sameMetrics(requestName(l.mix[req.named]), resp.Metrics, l.ref[req.named])
		}
		res.attempted++
		switch {
		case err != nil:
			res.failed++
			fail.add(err)
		case req.named >= 0:
			s := cal.sample(cpu)
			res.addHit(sent, lat, s)
			res.add(s, false)
			res.hitNs += int64(lat)
			res.hitSynthNs += resp.SynthesisNs
		default:
			s := cal.sample(cpu)
			res.add(s, true)
			res.misses = append(res.misses, s)
			res.generated = append(res.generated, generatedResp{seed: req.seed, metrics: resp.Metrics})
		}
	}
	res.elapsed = time.Since(start)
	for k, lats := range res.open {
		res.closeWindow(k, lats)
	}
	return res, nil
}

// traceServe is the serve workload's traced run: an untraced closed-loop
// phase over half the window gives the cache and serving counters, then
// requests of the same mix are replayed in process, decode → lookup →
// synthesis → metrics → encode, alternating untraced and traced.
func traceServe(ctx context.Context, cfg config, load *serveLoad) (*outcome, error) {
	rig, err := load.boot(ctx)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	fail := &failures{log: cfg.log}
	before, cacheBefore := rig.reg.Snapshot(), rig.cache.StatsSnapshot()
	res, err := load.closedPhase(ctx, rig, cfg.measure/2, cfg.cal, fail)
	if err != nil {
		return nil, err
	}
	delta, cacheAfter := rig.reg.Snapshot().Sub(before), rig.cache.StatsSnapshot()
	res.checkGenerated(ctx, fail)
	kreq := float64(res.attempted) / 1000
	load.checkFilled(ctx, res, fail)
	attempted, failed := res.attempted, res.failed

	tr := newTracer(cfg.workload)
	traceReg := obs.NewRegistry()
	counters := counterSums{}
	var untraced []float64
	ops := 0
	deadline := time.Now().Add(cfg.measure / 2)
	for ops == 0 || time.Now().Before(deadline) {
		req, err := load.next()
		if err != nil {
			return nil, err
		}
		attempted += 2
		start := time.Now()
		resp, d, err := load.inProcess(ctx, nil, nil, rig.cache, rig.reg, req)
		dur := time.Since(start)
		if err == nil {
			err = load.checkResponse(ctx, nil, req, resp, d)
		}
		if err != nil {
			failed++
			fail.add(err)
		} else {
			untraced = append(untraced, ms(dur))
		}

		if req, err = load.next(); err != nil {
			return nil, err
		}
		rec := obs.New()
		root := rec.StartSpan("op")
		id := tr.beginUnit(spanOp)
		resp, d, err = load.inProcess(ctx, tr, root, rig.cache, traceReg, req)
		tr.endUnit(id)
		root.End()
		counters.add(rec)
		ops++
		if err == nil {
			cid := tr.beginUnit(spanCheck)
			err = load.checkResponse(ctx, tr, req, resp, d)
			tr.endUnit(cid)
		}
		if err != nil {
			failed++
			fail.add(fmt.Errorf("replay: %w", err))
		}
	}
	snap := traceReg.Snapshot()
	raw := baseLayer(tr, ops, counters, histCount(snap, "cluster.probe.ns"), median(untraced))
	var opTotal float64
	for _, d := range tr.unitDurations(spanOp) {
		opTotal += d
	}
	if h := snap.Histograms["pipeline.cache.keybuild.ns"]; h != nil {
		raw["pipeline.keybuild_share"] = ratioOr(float64(h.Sum)/1e6, opTotal, 0)
	}
	hits, misses := float64(delta.Counters["pipeline.cache.hits"]), float64(delta.Counters["pipeline.cache.misses"])
	raw["pipeline.cache_hit_ratio"] = ratioOr(hits, hits+misses, 0)
	raw["pipeline.cache_evictions"] = ratioOr(float64(cacheAfter.Evictions-cacheBefore.Evictions), kreq, 0)
	raw["serve.rejected"] = ratioOr(float64(delta.Counters["serve.rejected"]), kreq, 0)
	raw["serve.http_share"] = ratioOr(float64(res.hitNs-res.hitSynthNs), float64(res.hitNs), 0)
	hitRef, missRef := res.refSums(cfg.cal)
	raw["serve.miss_time_share"] = ratioOr(missRef, hitRef+missRef, 0)
	tr.printLayers(cfg.log, spanOp)
	if err := tr.writeJSON(cfg.traceOut); err != nil {
		return nil, err
	}
	notes := map[string]float64{"traced_ops": float64(ops), "untraced_op_ms_p50": median(untraced),
		"traced_op_ms_p50": median(tr.unitDurations(spanOp))}
	return &outcome{attempted: attempted, failed: failed, raw: raw, notes: notes}, nil
}

// inProcess answers one request the way the server's handler does —
// decode, look up or generate the application, synthesize through the
// shared cache, evaluate, encode — timing each step when tr is set. A
// traced generated request is synthesized stage by stage instead, uncached.
func (l *serveLoad) inProcess(ctx context.Context, tr *tracer, root *obs.Span, cache *pipeline.Cache, reg *obs.Registry, r serveReq) (*serve.Response, *design.Design, error) {
	var req serve.Request
	if err := tr.do("serve.decode", func() error { return json.Unmarshal(r.body, &req) }); err != nil {
		return nil, nil, err
	}
	var app *netlist.Application
	var err error
	if req.Generate != nil {
		err = tr.do("netlist.generate", func() (err error) {
			app, err = netlist.Random(req.Generate.N, req.Generate.M, req.Generate.Seed)
			return err
		})
	} else {
		err = tr.do("netlist.lookup", func() (err error) { app, err = netlist.ByName(req.App); return err })
	}
	if err != nil {
		return nil, nil, err
	}
	opt := pipeline.Options{Parallelism: synthParallelism, Cache: cache, Registry: reg}
	var d *design.Design
	if tr != nil && req.Generate != nil {
		opt.Cache = nil
		d, err = replaySynthesize(ctx, tr, root, app, req.Method, opt)
	} else {
		err = tr.do("pipeline.cached_synth", func() (err error) {
			d, err = sring.SynthesizeContext(ctx, app, sring.Method(req.Method), opt)
			return err
		})
	}
	if err != nil {
		return nil, nil, err
	}
	var m *design.Metrics
	if err := tr.do("design.metrics", func() (err error) { m, err = d.Metrics(); return err }); err != nil {
		return nil, nil, err
	}
	resp := &serve.Response{App: app.Name, Method: d.Method, Nodes: app.N(), Messages: app.M(),
		SynthesisNs: d.SynthesisTime.Nanoseconds(), Metrics: m}
	err = tr.do("serve.encode", func() error {
		_, err := json.Marshal(resp)
		return err
	})
	return resp, d, err
}

// checkResponse validates the in-process design and compares the response
// with the uncached library result.
func (l *serveLoad) checkResponse(ctx context.Context, tr *tracer, r serveReq, resp *serve.Response, d *design.Design) error {
	if err := tr.do("design.validate", d.Validate); err != nil {
		return err
	}
	if r.named >= 0 {
		return sameMetrics(requestName(l.mix[r.named]), resp.Metrics, l.ref[r.named])
	}
	return checkGeneratedOne(ctx, r.seed, resp.Metrics)
}
