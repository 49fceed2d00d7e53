package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/baseline"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

// timedPolicy wraps the simrun.Policy a run is handed: it times every
// call, keeps every table returned for validation after the run, and
// keeps the telemetry windows it was given.
type timedPolicy struct {
	inner  simrun.Policy
	tr     *tracer
	parent telemetry.SpanID
	// allocs measures allocations inside policy calls, so the request
	// layer's allocations can be told apart (traced half only: it reads
	// runtime.MemStats, which stops the world).
	allocs bool

	busy    time.Duration
	tickMS  []float64
	tables  []*routing.Table
	windows [][]telemetry.WindowStats
	mallocs uint64
	allocB  uint64
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Init() (*routing.Table, error) {
	return p.call("Policy.Init", func() (*routing.Table, error) { return p.inner.Init() })
}

func (p *timedPolicy) Tick(stats []telemetry.WindowStats, window time.Duration) (*routing.Table, error) {
	p.windows = append(p.windows, stats)
	return p.call("Policy.Tick", func() (*routing.Table, error) { return p.inner.Tick(stats, window) })
}

func (p *timedPolicy) call(name string, f func() (*routing.Table, error)) (*routing.Table, error) {
	var m0, m1 runtime.MemStats
	if p.allocs {
		runtime.ReadMemStats(&m0)
	}
	sp := p.tr.start(layerPolicy, name, p.parent)
	start := time.Now()
	tab, err := f()
	d := time.Since(start)
	sp.end()
	if p.allocs {
		runtime.ReadMemStats(&m1)
		p.mallocs += m1.Mallocs - m0.Mallocs
		p.allocB += m1.TotalAlloc - m0.TotalAlloc
	}
	p.busy += d
	if name == "Policy.Tick" {
		p.tickMS = append(p.tickMS, ms(d))
	}
	if tab != nil {
		p.tables = append(p.tables, tab)
	}
	return tab, err
}

// validateTables checks every table a policy returned.
func validateTables(r *result, what string, top *topology.Topology, tables []*routing.Table) {
	for _, t := range tables {
		if err := t.Validate(top); err != nil {
			r.check(false, "%s: table v%d invalid: %v", what, t.Version, err)
			return
		}
	}
}

// fingerprint hashes every counter and latency moment of a result, so
// two runs (or a parent and a change) can be shown to agree.
func fingerprint(res *simrun.Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d/%d/%d/%d/%d/%d/%v/%d",
		res.Generated, res.Completed, res.Failed, res.Mean, res.P50, res.P99,
		res.EgressBytes, res.DegradedCalls, res.RemoteFraction, res.PolicyErrors)
	if res.Parallel != nil {
		fmt.Fprintf(h, "/%d/%d/%d", res.Parallel.Messages, res.Parallel.Windows, res.Parallel.Events)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// inputDigest hashes a scenario's topology, application, workload and
// seed, plus any extra input.
func inputDigest(scn simrun.Scenario, extra ...any) (string, error) {
	h := fnv.New64a()
	ids := scn.Top.ClusterIDs()
	for _, a := range ids {
		for _, b := range ids {
			fmt.Fprintf(h, "%s-%s:%d;", a, b, scn.Top.RTT(a, b))
		}
	}
	for _, v := range append([]any{scn.App, scn.Workload, scn.Dynamics}, extra...) {
		b, err := json.Marshal(v)
		if err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
		h.Write(b)
	}
	fmt.Fprintf(h, "|%d|%v|%v|%v", scn.Seed, scn.Duration, scn.Warmup, scn.ControlPeriod)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// windowsDigest hashes recorded telemetry windows.
func windowsDigest(windows [][]telemetry.WindowStats) (string, error) {
	b, err := json.Marshal(windows)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// latencies pools the end-to-end latency samples of results, in ms.
func latencies(rs ...*simrun.Result) []float64 {
	var out []float64
	for _, res := range rs {
		classes := make([]string, 0, len(res.PerClass))
		for c := range res.PerClass {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			for _, s := range res.PerClass[c].Samples {
				out = append(out, ms(s))
			}
		}
	}
	return out
}

// desRound is one timed simulation call.
type desRound struct {
	wall    time.Duration
	cpu     time.Duration
	policy  *timedPolicy
	res     *simrun.Result
	mallocs uint64
	allocB  uint64
	gc      uint32
	gcPause time.Duration
}

// timedRun runs one simulation inside a run span, measuring wall time
// and (traced) allocations and GC.
func timedRun(tr *tracer, name string, pol *timedPolicy, run func(simrun.Policy) (*simrun.Result, error)) (desRound, error) {
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	sp := tr.start(layerSimrun, name, 0)
	pol.tr, pol.parent, pol.allocs = tr, sp.ID(), tr != nil
	cpu0 := cpuTime()
	start := time.Now()
	res, err := run(pol)
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	sp.end()
	if err != nil {
		return desRound{}, err
	}
	d := desRound{wall: wall, cpu: cpu, policy: pol, res: res}
	if tr != nil {
		runtime.ReadMemStats(&m1)
		d.mallocs = m1.Mallocs - m0.Mallocs
		d.allocB = m1.TotalAlloc - m0.TotalAlloc
		d.gc = m1.NumGC - m0.NumGC
		d.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	}
	return d, nil
}

// desLayers fills the request-layer and GC metrics from traced rounds.
func desLayers(r *result, rounds []desRound) {
	var reqs, nsSim, mallocs, allocB, gc float64
	var pause time.Duration
	var windows, messages, events float64
	var ticks []float64
	parallel := false
	for _, d := range rounds {
		reqs += float64(d.res.Generated)
		nsSim += float64(d.wall - d.policy.busy)
		mallocs += float64(d.mallocs - d.policy.mallocs)
		allocB += float64(d.allocB - d.policy.allocB)
		gc += float64(d.gc)
		pause += d.gcPause
		ticks = append(ticks, d.policy.tickMS...)
		if p := d.res.Parallel; p != nil {
			parallel = true
			windows += float64(p.Windows)
			messages += float64(p.Messages)
			events += float64(p.Events)
		}
	}
	n := float64(len(rounds))
	r.layer["simrun.ns_per_req"] = ratio(nsSim, reqs)
	r.layer["simrun.allocs_per_req"] = ratio(mallocs, reqs)
	r.layer["simrun.bytes_per_req"] = ratio(allocB, reqs)
	r.layer["go.gc_cycles"] = ratio(gc, n)
	r.layer["go.gc_pause_ms"] = ratio(ms(pause), n)
	r.layer["sim.windows"] = ratio(windows, n)
	r.layer["sim.messages"] = ratio(messages, n)
	r.layer["sim.messages_per_req"] = ratio(messages, reqs)
	r.layer["sim.events_per_req"] = ratio(events, reqs)
	r.layer["core.tick_p50_ms"] = quantile(ticks, 0.5)
	r.layer["core.tick_p99_ms"] = quantile(ticks, 0.99)
	if !parallel {
		r.unmeasured["sim.events_per_req"] = "the serial engine does not expose its event count; sim.Group windows and messages are bypassed"
	}
}

// coreCounts is a controller's cumulative planner counters.
type coreCounts struct {
	st             core.OptimizerStats
	reverts, holds uint64
}

func countsOf(c *core.Controller) coreCounts {
	return coreCounts{st: c.OptimizerStats(), reverts: c.Reverts(), holds: c.IterLimitHolds()}
}

// minus is the counters accrued since base.
func (c coreCounts) minus(base coreCounts) coreCounts {
	a, b := c.st, base.st
	return coreCounts{
		st: core.OptimizerStats{
			SubSolves:     a.SubSolves - b.SubSolves,
			SkippedSolves: a.SkippedSolves - b.SkippedSolves,
			WarmSolves:    a.WarmSolves - b.WarmSolves,
			ColdSolves:    a.ColdSolves - b.ColdSolves,
			SearchSolves:  a.SearchSolves - b.SearchSolves,
			SimplexWins:   a.SimplexWins - b.SimplexWins,
			GapAbandoned:  a.GapAbandoned - b.GapAbandoned,
		},
		reverts: c.reverts - base.reverts,
		holds:   c.holds - base.holds,
	}
}

// coreLayers fills the planner counters, averaged per controller run.
func coreLayers(r *result, runs []coreCounts) {
	var st core.OptimizerStats
	var reverts, holds float64
	for _, c := range runs {
		st.SubSolves += c.st.SubSolves
		st.SkippedSolves += c.st.SkippedSolves
		st.WarmSolves += c.st.WarmSolves
		st.ColdSolves += c.st.ColdSolves
		st.SearchSolves += c.st.SearchSolves
		st.SimplexWins += c.st.SimplexWins
		st.GapAbandoned += c.st.GapAbandoned
		reverts += float64(c.reverts)
		holds += float64(c.holds)
	}
	n := float64(len(runs))
	r.layer["core.subsolves"] = ratio(float64(st.SubSolves), n)
	r.layer["core.skipped"] = ratio(float64(st.SkippedSolves), n)
	r.layer["core.skip_ratio"] = ratio(float64(st.SkippedSolves), float64(st.SkippedSolves+st.SubSolves))
	r.layer["core.warm_solves"] = ratio(float64(st.WarmSolves), n)
	r.layer["core.cold_solves"] = ratio(float64(st.ColdSolves), n)
	r.layer["core.search_win_ratio"] = ratio(float64(st.SearchSolves), float64(st.SearchSolves+st.SimplexWins))
	r.layer["core.gap_abandoned"] = ratio(float64(st.GapAbandoned), n)
	r.layer["core.reverts"] = ratio(reverts, n)
	r.layer["core.iter_limit_holds"] = ratio(holds, n)
}

// trafficCheck replays recorded telemetry windows into a decomposed
// controller with the search race on, and reports how often a
// subproblem solve could be skipped and how often search won. Later
// skip- or search-based optimisations must cite these shares.
func trafficCheck(r *result, top *topology.Topology, app *appgraph.App, windows [][]telemetry.WindowStats, window time.Duration) error {
	ctrl, err := core.NewController(top, app, core.ControllerConfig{Decompose: true, Search: true})
	if err != nil {
		return err
	}
	keys := 0
	for _, w := range windows {
		keys += len(w)
		tab, err := ctrl.Tick(w, window)
		if err == nil && tab != nil {
			validateTables(r, "traffic replay", top, []*routing.Table{tab})
		}
	}
	st := ctrl.OptimizerStats()
	r.layer["telemetry.keys_per_window"] = ratio(float64(keys), float64(len(windows)))
	r.layer["traffic.skip_ratio"] = ratio(float64(st.SkippedSolves), float64(st.SkippedSolves+st.SubSolves))
	r.layer["traffic.search_win_ratio"] = ratio(float64(st.SearchSolves), float64(st.SearchSolves+st.SimplexWins))
	note("traffic check over %d windows: %d of %d subproblem solves skipped, %d of %d raced solves won by search (%d candidates abandoned)",
		len(windows), st.SkippedSolves, st.SkippedSolves+st.SubSolves, st.SearchSolves, st.SearchSolves+st.SimplexWins, st.GapAbandoned)
	return nil
}

// --- fig6-serial -------------------------------------------------------

// fig6Duration is each figure run's simulated length; warmup is a sixth
// of it, as in internal/experiments.
const fig6Duration = 20 * time.Second

// waterfallFrac is the Waterfall threshold internal/experiments uses.
const waterfallFrac = 0.95

type figCase struct {
	scn    simrun.Scenario
	demand core.Demand
}

func chainApp(clusters ...topology.ClusterID) *appgraph.App {
	return appgraph.LinearChain(appgraph.ChainOptions{
		Services:        3,
		MeanServiceTime: 10 * time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters:        clusters,
	})
}

func steady(class string, demand map[topology.ClusterID]float64) []workload.Spec {
	var out []workload.Spec
	ids := make([]topology.ClusterID, 0, len(demand))
	for c := range demand {
		ids = append(ids, c)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, c := range ids {
		if demand[c] > 0 {
			out = append(out, workload.Steady(class, c, demand[c]))
		}
	}
	return out
}

// fig6Cases builds the paper's Fig 6a and Fig 6b scenarios.
func fig6Cases(seed int64) []figCase {
	mk := func(name string, top *topology.Topology, demand core.Demand) figCase {
		return figCase{
			scn: simrun.Scenario{
				Name:     name,
				Top:      top,
				App:      chainApp(top.ClusterIDs()...),
				Workload: steady("default", demand["default"]),
				Duration: fig6Duration,
				Warmup:   fig6Duration / 6,
				Seed:     seed,
			},
			demand: demand,
		}
	}
	return []figCase{
		mk("fig6a", topology.TwoClusters(40*time.Millisecond),
			core.Demand{"default": {topology.West: 900, topology.East: 100}}),
		mk("fig6b", topology.GCPTopology(),
			core.Demand{"default": {topology.OR: 1090, topology.UT: 100, topology.IOW: 1090, topology.SC: 100}}),
	}
}

func copyDemand(d core.Demand) core.Demand {
	out := core.Demand{}
	for cl, m := range d {
		out[cl] = map[topology.ClusterID]float64{}
		for c, v := range m {
			out[cl][c] = v
		}
	}
	return out
}

// fig6Policies builds a primed SLATE and a primed Waterfall policy the
// way internal/experiments does.
func fig6Policies(c figCase) (slate, waterfall *timedPolicy, ctrl *core.Controller, err error) {
	ctrl, err = core.NewController(c.scn.Top, c.scn.App, core.ControllerConfig{Decompose: true})
	if err != nil {
		return nil, nil, nil, err
	}
	ctrl.SetDemand(copyDemand(c.demand))
	d := copyDemand(c.demand)
	wc, err := baseline.NewController(c.scn.Top, c.scn.App, baseline.DefaultCapacities(c.scn.App, c.scn.Top, d, waterfallFrac))
	if err != nil {
		return nil, nil, nil, err
	}
	wc.SetDemand(d)
	return &timedPolicy{inner: simrun.SLATE(ctrl, true)}, &timedPolicy{inner: simrun.Waterfall(wc, true)}, ctrl, nil
}

func runFig6Serial(e *env, r *result) error {
	cases := fig6Cases(e.seed)
	for _, c := range cases {
		dg, err := inputDigest(c.scn)
		if err != nil {
			return err
		}
		note("input digest %s %s", c.scn.Name, dg)
	}
	// Set-up: build both figures' policies and prime them cold.
	setup, _, err := timeSetups(5, time.Second, func() (struct{}, func(), error) {
		for _, c := range fig6Cases(e.seed) {
			s, w, _, err := fig6Policies(c)
			if err != nil {
				return struct{}{}, nil, err
			}
			for _, p := range []*timedPolicy{s, w} {
				if _, err := p.Init(); err != nil {
					return struct{}{}, nil, err
				}
				validateTables(r, c.scn.Name+" setup", c.scn.Top, p.tables)
			}
		}
		return struct{}{}, nil, nil
	})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup

	// round runs both figures under both policies once.
	type legs struct {
		runs  []desRound
		ctrls []*core.Controller
	}
	round := func(tr *tracer) (legs, error) {
		var l legs
		for _, c := range cases {
			s, w, ctrl, err := fig6Policies(c)
			if err != nil {
				return l, err
			}
			l.ctrls = append(l.ctrls, ctrl)
			for _, p := range []*timedPolicy{s, w} {
				d, err := timedRun(tr, c.scn.Name+"/"+p.Name(), p, func(pol simrun.Policy) (*simrun.Result, error) {
					return simrun.Run(c.scn, pol)
				})
				if err != nil {
					return l, fmt.Errorf("%s/%s: %w", c.scn.Name, p.Name(), err)
				}
				validateTables(r, c.scn.Name+"/"+p.Name(), c.scn.Top, p.tables)
				l.runs = append(l.runs, d)
			}
		}
		return l, nil
	}
	var first legs
	var firstFP []string
	// Simulated requests per CPU-second and per wall-second, per round,
	// keyed by traced.
	rates, wallRates := map[bool][]float64{}, map[bool][]float64{}
	var traced []desRound
	var tracedCtrls []coreCounts
	var tr *tracer
	for _, phase := range e.phases() {
		if phase.traced {
			tr = newTracer(e.seed)
		}
		deadline := time.Now().Add(phase.d)
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			l, err := round(tr)
			if err != nil {
				return err
			}
			var reqs float64
			var wall, cpu time.Duration
			var fps []string
			for _, d := range l.runs {
				reqs += float64(d.res.Generated)
				wall += d.wall
				cpu += d.cpu
				fps = append(fps, fingerprint(d.res))
				r.attempted += int64(d.res.Generated) + int64(len(d.policy.tickMS))
				r.failed += int64(d.res.Failed) + int64(d.res.PolicyErrors)
				r.check(d.res.Failed == 0,
					"%s/%s: availability %v with %d failed requests on a fault-free run", d.res.Scenario, d.res.Policy, d.res.Availability, d.res.Failed)
			}
			rates[phase.traced] = append(rates[phase.traced], reqs/cpu.Seconds())
			wallRates[phase.traced] = append(wallRates[phase.traced], reqs/wall.Seconds())
			if firstFP == nil {
				first, firstFP = l, fps
				for _, d := range l.runs {
					note("fingerprint %s/%s %s generated %d completed %d mean %v p50 %v p99 %v egress %d",
						d.res.Scenario, d.res.Policy, fingerprint(d.res), d.res.Generated, d.res.Completed,
						d.res.Mean, d.res.P50, d.res.P99, d.res.EgressBytes)
				}
			} else {
				r.check(fmt.Sprint(fps) == fmt.Sprint(firstFP), "same seed, different result: %v vs %v", fps, firstFP)
			}
			if phase.traced {
				traced = append(traced, l.runs...)
				for _, c := range l.ctrls {
					tracedCtrls = append(tracedCtrls, countsOf(c))
				}
			}
		}
	}

	// Routing quality, from the first round: SLATE legs pooled.
	var slateRes []*simrun.Result
	for i := 0; i < len(first.runs); i += 2 {
		s, w := first.runs[i].res, first.runs[i+1].res
		slateRes = append(slateRes, s)
		ratioWS := float64(w.Mean) / float64(s.Mean)
		note("%s waterfall/slate mean latency %.4f", s.Scenario, ratioWS)
		r.check(ratioWS > 1, "%s: Waterfall mean %v is not above SLATE mean %v", s.Scenario, w.Mean, s.Mean)
	}
	lat := latencies(slateRes...)
	r.e2e["throughput_per_s"] = median(rates[false])
	r.e2e["latency_p50_ms"] = quantile(lat, 0.5)
	note("SLATE-routed latency p50 %.4f p99 %.4f mean %.4f ms over %d requests",
		quantile(lat, 0.5), quantile(lat, 0.99), mean(lat), len(lat))
	note("rounds %d untraced, %d traced; simulated requests per CPU-second %v, per wall-second %v (median %.6g)",
		len(rates[false]), len(rates[true]), rates[false], wallRates[false], median(wallRates[false]))

	if e.trace {
		desLayers(r, traced)
		coreLayers(r, tracedCtrls)
		tr.report(r)
		r.layer["trace.overhead_pct"] = 100 * (median(rates[false])/median(rates[true]) - 1)
		for _, k := range []string{"telemetry.keys_per_window", "traffic.skip_ratio", "traffic.search_win_ratio"} {
			r.unmeasured[k] = "figure runs are primed once and never tick on telemetry"
		}
		for _, k := range []string{"core.tick_p50_ms", "core.tick_p99_ms"} {
			r.unmeasured[k] = "figure runs never tick: the planner runs only at Prime (policy self time)"
		}
		return e.writeSpans(tr)
	}
	return nil
}
