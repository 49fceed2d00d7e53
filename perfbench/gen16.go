package main

import (
	"fmt"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/scenario"
	"github.com/servicelayernetworking/slate/internal/simrun"
)

// genDeploymentSeed fixes the generated deployment (topology, services,
// call trees, placement) to the one the repository's pardes experiment
// uses; --seed varies the traffic drawn over it. A different deployment
// per seed would make planner cost vary with problem shape rather than
// with the code under test.
const genDeploymentSeed = 42

const (
	gen16Duration = 12 * time.Second
	gen16Period   = 2 * time.Second
	gen16Shards   = 8
)

// gen16Spec is the pardes scaling spec from internal/experiments: 16
// clusters, 96 services, 12 classes, 4000 RPS with Pareto tails, churn,
// hotspots and retry storms.
func gen16Spec() scenario.GenSpec {
	return scenario.GenSpec{
		Seed:           genDeploymentSeed,
		Clusters:       16,
		Regions:        4,
		Services:       96,
		Classes:        12,
		TailAlpha:      1.8,
		TotalRPS:       4000,
		RemoteFraction: 0.12,
		ChurnEvents:    8,
		HotspotClasses: 2,
		StormClasses:   2,
		Duration:       gen16Duration,
		Warmup:         gen16Duration / 5,
	}
}

// gen16Scenario generates the deployment and the seeded traffic over it.
func gen16Scenario(seed int64) (*scenario.Generated, simrun.Scenario, error) {
	g, err := scenario.Generate(gen16Spec())
	if err != nil {
		return nil, simrun.Scenario{}, err
	}
	scn := g.Scenario("gen16")
	scn.Seed = seed
	scn.ControlPeriod = gen16Period
	return g, scn, nil
}

// gen16Policy is an unprimed SLATE controller configured the way
// internal/experiments configures it; it starts all-local and ticks on
// the telemetry the simulation produces.
func gen16Policy(g *scenario.Generated) (*timedPolicy, *core.Controller, error) {
	ctrl, err := core.NewController(g.Top, g.App, core.ControllerConfig{Decompose: true})
	if err != nil {
		return nil, nil, err
	}
	return &timedPolicy{inner: simrun.SLATE(ctrl, false)}, ctrl, nil
}

func runGen16Sharded(e *env, r *result) error {
	g, scn, err := gen16Scenario(e.seed)
	if err != nil {
		return err
	}
	dg, err := inputDigest(scn, g.Spec)
	if err != nil {
		return err
	}
	note("input digest gen16 spec+traffic %s", dg)

	// Set-up: generate the scenario, build the controller, take its
	// initial table.
	setup, _, err := timeSetups(5, time.Second, func() (struct{}, func(), error) {
		g, _, err := gen16Scenario(e.seed)
		if err != nil {
			return struct{}{}, nil, err
		}
		p, _, err := gen16Policy(g)
		if err != nil {
			return struct{}{}, nil, err
		}
		_, err = p.Init()
		return struct{}{}, nil, err
	})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup

	var firstRes *simrun.Result
	var firstWindows = 0
	var recorded *timedPolicy
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
			pol, ctrl, err := gen16Policy(g)
			if err != nil {
				return err
			}
			d, err := timedRun(tr, "gen16/slate", pol, func(p simrun.Policy) (*simrun.Result, error) {
				return simrun.RunParallel(scn, p, simrun.ParallelOptions{Shards: gen16Shards})
			})
			if err != nil {
				return err
			}
			res := d.res
			validateTables(r, "gen16", g.Top, pol.tables)
			r.attempted += int64(res.Generated) + int64(len(pol.tickMS))
			r.failed += int64(res.Failed) + int64(res.PolicyErrors)
			r.check(res.Failed == 0,
				"gen16: availability %v with %d failed requests on a fault-free run", res.Availability, res.Failed)
			rates[phase.traced] = append(rates[phase.traced], float64(res.Generated)/d.cpu.Seconds())
			wallRates[phase.traced] = append(wallRates[phase.traced], float64(res.Generated)/d.wall.Seconds())
			if firstRes == nil {
				firstRes, recorded, firstWindows = res, pol, len(pol.windows)
				note("fingerprint gen16/slate %s generated %d completed %d mean %v p50 %v p99 %v windows %d messages %d events %d policy errors %d",
					fingerprint(res), res.Generated, res.Completed, res.Mean, res.P50, res.P99,
					res.Parallel.Windows, res.Parallel.Messages, res.Parallel.Events, res.PolicyErrors)
				wd, err := windowsDigest(pol.windows)
				if err != nil {
					return err
				}
				note("input digest gen16 telemetry windows %s (%d windows)", wd, firstWindows)
			} else {
				r.check(fingerprint(res) == fingerprint(firstRes), "gen16: same seed, different result: %s vs %s", fingerprint(res), fingerprint(firstRes))
			}
			if phase.traced {
				traced = append(traced, d)
				tracedCtrls = append(tracedCtrls, countsOf(ctrl))
			}
		}
	}
	lat := latencies(firstRes)
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
		if err := trafficCheck(r, g.Top, g.App, recorded.windows, gen16Period); err != nil {
			return fmt.Errorf("traffic check: %w", err)
		}
		return e.writeSpans(tr)
	}
	return nil
}
