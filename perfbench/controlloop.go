package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/servicelayernetworking/slate/internal/controlplane"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/dataplane"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/scenario"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

const (
	// loopWindow is the telemetry window the recorded input covers.
	loopWindow = 2 * time.Second
	// loopRecorded is how many windows are recorded; periods cycle
	// through them.
	loopRecorded = 12
)

// loopConfig is the global controller configuration cmd/slate-global
// runs by default: monolithic planner, MaxStep 0.25, profile learning
// and the regression guard on.
func loopConfig() core.ControllerConfig {
	return core.ControllerConfig{
		Optimizer:       core.Config{LatencyWeight: 1, CostWeight: 0},
		MaxStep:         0.25,
		LearnProfiles:   true,
		GuardRegression: true,
	}
}

// recordLoopInput runs the generated deployment on the DES under its
// static locality table and keeps the telemetry windows the control
// plane would have received. The input therefore does not depend on
// the planner under test.
func recordLoopInput(g *scenario.Generated, seed int64) ([][]telemetry.WindowStats, error) {
	scn := g.Scenario("control-loop-input")
	scn.Seed = seed
	scn.ControlPeriod = loopWindow
	scn.Duration = (loopRecorded + 2) * loopWindow
	scn.Warmup = loopWindow
	rec := &timedPolicy{inner: g.Policy()}
	res, err := simrun.RunParallel(scn, rec, simrun.ParallelOptions{Shards: gen16Shards})
	if err != nil {
		return nil, err
	}
	// The first window ends at the warmup boundary, before telemetry
	// starts: skip it.
	if res.Failed != 0 || len(rec.windows) < loopRecorded+1 {
		return nil, fmt.Errorf("recording run: %d failed requests, %d windows", res.Failed, len(rec.windows))
	}
	out := rec.windows[1 : loopRecorded+1]
	for i, w := range out {
		if len(w) == 0 {
			return nil, fmt.Errorf("recording run: window %d is empty", i)
		}
	}
	return out, nil
}

// splitByCluster splits a merged window into per-cluster slices in
// topology order, as each cluster's agents would push them.
func splitByCluster(ids []topology.ClusterID, w []telemetry.WindowStats) [][]telemetry.WindowStats {
	idx := map[string]int{}
	for i, c := range ids {
		idx[string(c)] = i
	}
	out := make([][]telemetry.WindowStats, len(ids))
	for _, s := range w {
		i := idx[s.Key.Cluster]
		out[i] = append(out[i], s)
	}
	return out
}

// loopStack is a live control plane on loopback HTTP: one global
// controller, one cluster controller per cluster, and a registered
// proxy for every placed (service, cluster).
type loopStack struct {
	ctrl     *core.Controller
	global   *controlplane.Global
	clusters []*controlplane.Cluster
	proxies  []*dataplane.Proxy
	servers  []*http.Server
	wg       sync.WaitGroup
}

var errNoPeer = errors.New("no request traffic in this workload")

func newLoopStack(ctx context.Context, g *scenario.Generated, seed int64) (*loopStack, error) {
	ctrl, err := core.NewController(g.Top, g.App, loopConfig())
	if err != nil {
		return nil, err
	}
	s := &loopStack{ctrl: ctrl, global: controlplane.NewGlobal(ctrl)}
	gURL, err := s.serve(s.global.Handler())
	if err != nil {
		s.close()
		return nil, err
	}
	rng := sim.NewRNG(seed)
	noPeer := dataplane.ResolverFunc(func(string, topology.ClusterID) (string, error) { return "", errNoPeer })
	for _, cl := range g.Top.ClusterIDs() {
		cc := controlplane.NewCluster(cl, gURL)
		u, err := s.serve(cc.Handler())
		if err != nil {
			s.close()
			return nil, err
		}
		if err := cc.Register(ctx, u); err != nil {
			s.close()
			return nil, err
		}
		for sid, svc := range g.App.Services {
			if pl, ok := svc.Placement[cl]; !ok || pl.Replicas <= 0 {
				continue
			}
			p, err := dataplane.New(dataplane.Config{
				Service:  string(sid),
				Cluster:  cl,
				LocalApp: "http://127.0.0.1:1",
				Resolver: noPeer,
				RNG:      rng.DeriveNamed(string(sid) + "@" + string(cl)),
			})
			if err != nil {
				s.close()
				return nil, err
			}
			cc.AddProxy(p)
			s.proxies = append(s.proxies, p)
		}
		s.clusters = append(s.clusters, cc)
	}
	return s, nil
}

// serve starts an HTTP server for h on a loopback port.
func (s *loopStack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every server and waits for them to return.
func (s *loopStack) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
	s.wg.Wait()
}

// loopPeriod is one period's measurements.
type loopPeriod struct {
	total, tick time.Duration
	reports     []time.Duration
	err         error
}

// period runs one closed-loop control period: agents push the window to
// their cluster controllers, every cluster reports, the global ticks
// and pushes, and every proxy must then hold the published version.
func (s *loopStack) period(ctx context.Context, tr *tracer, r *result, perCluster [][]telemetry.WindowStats) loopPeriod {
	var lp loopPeriod
	sp := tr.start(layerPeriod, "period", 0)
	start := time.Now()
	for i, cc := range s.clusters {
		cc.IngestFrom("agent", perCluster[i])
	}
	var errs []error
	for _, cc := range s.clusters {
		rs := tr.start(layerReport, "Cluster.Report", sp.ID())
		rs.setAttr(string(cc.ID()))
		t0 := time.Now()
		if err := cc.Report(ctx, loopWindow); err != nil {
			errs = append(errs, err)
		}
		lp.reports = append(lp.reports, time.Since(t0))
		rs.end()
	}
	ts := tr.start(layerTick, "Global.Tick", sp.ID())
	t0 := time.Now()
	if err := s.global.Tick(ctx); err != nil {
		errs = append(errs, err)
	}
	lp.tick = time.Since(t0)
	ts.end()
	want := s.ctrl.Table().Version
	stale := 0
	for _, p := range s.proxies {
		if p.TableVersion() != want {
			stale++
		}
	}
	lp.total = time.Since(start)
	sp.end()
	r.check(stale == 0, "control-loop: %d of %d proxies not at published version %d after a period", stale, len(s.proxies), want)
	lp.err = errors.Join(errs...)
	return lp
}

func runControlLoop(e *env, r *result) error {
	ctx := context.Background()
	g, err := scenario.Generate(gen16Spec())
	if err != nil {
		return err
	}
	windows, err := recordLoopInput(g, e.seed)
	if err != nil {
		return err
	}
	dg, err := windowsDigest(windows)
	if err != nil {
		return err
	}
	sdg, err := inputDigest(g.Scenario("spec"), g.Spec)
	if err != nil {
		return err
	}
	note("input digest control-loop spec %s telemetry windows %s (%d windows)", sdg, dg, len(windows))
	ids := g.Top.ClusterIDs()
	split := make([][][]telemetry.WindowStats, len(windows))
	keys := 0
	for i, w := range windows {
		split[i] = splitByCluster(ids, w)
		keys += len(w)
	}

	// Set-up: construct and register the stack, then run the first
	// (cold) period on window 0.
	setup, stack, err := timeSetups(5, 0, func() (*loopStack, func(), error) {
		s, err := newLoopStack(ctx, g, e.seed)
		if err != nil {
			return nil, nil, err
		}
		if lp := s.period(ctx, nil, r, split[0]); lp.err != nil {
			s.close()
			return nil, nil, fmt.Errorf("cold period: %w", lp.err)
		}
		return s, s.close, nil
	})
	if err != nil {
		return err
	}
	defer stack.close()
	r.e2e["setup_s"] = setup
	note("control-loop stack: %d clusters, %d proxies", len(stack.clusters), len(stack.proxies))

	next := 1
	var untracedMS []float64
	var untracedWall, untracedCPU time.Duration
	var tr *tracer
	for _, phase := range e.phases() {
		var before promSnap
		var base coreCounts
		var m0, m1 runtime.MemStats
		if phase.traced {
			tr = newTracer(e.seed)
			if before, err = takeSnap(); err != nil {
				return err
			}
			base = countsOf(stack.ctrl)
			runtime.ReadMemStats(&m0)
		}
		var periodMS, reportMS, tickMS []float64
		changed := 0
		prev := stack.ctrl.Table()
		cpu0 := cpuTime()
		begin := time.Now()
		deadline := begin.Add(phase.d)
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			lp := stack.period(ctx, tr, r, split[next%len(split)])
			next++
			r.attempted++
			if lp.err != nil {
				r.failed++
				note("period error: %v", lp.err)
			}
			periodMS = append(periodMS, ms(lp.total))
			tickMS = append(tickMS, ms(lp.tick))
			for _, d := range lp.reports {
				reportMS = append(reportMS, ms(d))
			}
			cur := stack.ctrl.Table()
			changed += len(routing.Diff(prev, cur))
			prev = cur
		}
		wall, cpu := time.Since(begin), cpuTime()-cpu0
		if !phase.traced {
			untracedMS, untracedWall, untracedCPU = periodMS, wall, cpu
			continue
		}
		runtime.ReadMemStats(&m1)
		after, err := takeSnap()
		if err != nil {
			return err
		}
		periods := float64(len(periodMS))
		r.layer["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		r.layer["go.gc_pause_ms"] = ms(time.Duration(m1.PauseTotalNs - m0.PauseTotalNs))
		r.layer["controlplane.report_ms"] = mean(reportMS)
		r.layer["controlplane.tick_ms"] = mean(tickMS)
		r.layer["controlplane.push_ms"] = 1000 * ratio(delta(before, after, "slate_global_push_seconds_sum", nil),
			delta(before, after, "slate_global_push_seconds_count", nil))
		r.layer["controlplane.patch_bytes_per_period"] = delta(before, after, "slate_global_patch_bytes_total", nil) / periods
		r.layer["controlplane.resyncs"] = delta(before, after, "slate_global_push_resyncs_total", nil)
		r.layer["routing.rules"] = float64(stack.ctrl.Table().Len())
		r.layer["routing.rules_changed_per_period"] = float64(changed) / periods
		coreLayers(r, []coreCounts{countsOf(stack.ctrl).minus(base)})
		tr.report(r)
		r.layer["trace.overhead_pct"] = 100 * (median(periodMS)/median(untracedMS) - 1)
		r.unmeasured["core.tick_p50_ms"] = "Global.Tick solves and pushes in one call; its wall time is controlplane.tick_ms"
		r.unmeasured["core.tick_p99_ms"] = r.unmeasured["core.tick_p50_ms"]
		r.unmeasured["core.skip_ratio"] = "the default daemon config runs the monolithic planner, which has no subproblems; see traffic.skip_ratio"
		r.unmeasured["core.search_win_ratio"] = "the default daemon config does not race search; see traffic.search_win_ratio"
	}
	r.e2e["throughput_per_s"] = float64(len(untracedMS)) / untracedCPU.Seconds()
	r.e2e["latency_p50_ms"] = quantile(untracedMS, 0.5)
	note("periods %d untraced: %.4g per CPU-second, %.4g per wall-second", len(untracedMS),
		float64(len(untracedMS))/untracedCPU.Seconds(), float64(len(untracedMS))/untracedWall.Seconds())
	note("periods %d untraced; period ms p50 %.2f p75 %.2f p90 %.2f max %.2f mean %.2f", len(untracedMS),
		quantile(untracedMS, 0.5), quantile(untracedMS, 0.75), quantile(untracedMS, 0.9), quantile(untracedMS, 1), mean(untracedMS))
	if e.trace {
		r.layer["telemetry.keys_per_window"] = float64(keys) / float64(len(windows))
		if err := trafficCheck(r, g.Top, g.App, windows, loopWindow); err != nil {
			return fmt.Errorf("traffic check: %w", err)
		}
		return e.writeSpans(tr)
	}
	return nil
}
