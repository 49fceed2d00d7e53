// Gap-vs-budget curve for the anytime search optimizer: how close the
// local search lands to the warm simplex optimum as its evaluation
// budget grows, on a generated 64-cluster × 32-class deployment — the
// re-optimization scale the paper's §5 fast-reaction challenge targets.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/scenario"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// gapCurveSpec is the 64×32 formulation the curve sweeps: planet-ish
// width (64 clusters over 8 regions) with enough per-class headroom
// that the perturbed demand stays feasible.
func gapCurveSpec(opt Options) scenario.GenSpec {
	return scenario.GenSpec{
		Seed:            opt.Seed,
		Clusters:        64,
		Regions:         8,
		Services:        128,
		Classes:         32,
		Spread:          3,
		Replicas:        3,
		Concurrency:     8,
		TotalRPS:        200000,
		ArrivalSpread:   2,
		RemoteFraction:  0.1,
		MeanServiceTime: 2 * time.Millisecond,
	}
}

// genDemand folds a generated workload's steady rates into a demand map.
func genDemand(g *scenario.Generated) core.Demand {
	d := core.Demand{}
	for _, sp := range g.Workload {
		r := sp.RateAt(0)
		if r <= 0 {
			continue
		}
		if d[sp.Class] == nil {
			d[sp.Class] = map[topology.ClusterID]float64{}
		}
		d[sp.Class][sp.Cluster] += r
	}
	return d
}

// perturbDemand returns a copy with alternating classes scaled up and
// down — the "warm incumbent, shifted demand" regime the race is for.
func perturbDemand(d core.Demand, up, down float64) core.Demand {
	classes := make([]string, 0, len(d))
	for class := range d {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	out := core.Demand{}
	for i, class := range classes {
		f := up
		if i%2 == 1 {
			f = down
		}
		out[class] = map[topology.ClusterID]float64{}
		for c, v := range d[class] {
			out[class][c] = v * f
		}
	}
	return out
}

// GapCurve races the anytime local search against the warm simplex at
// increasing evaluation budgets and reports the achieved optimality gap
// of each raced plan, scored on the exact shard LPs. MaxGap is set to
// 1.0 so every feasible search result is taken — the curve shows what
// the budget alone buys, not what the acceptance filter hides. Wall
// times are recorded as notes for the record; they are machine-dependent
// and never part of the result (the race is decided by a logical
// evaluation budget, not the clock).
func GapCurve(opt Options) (*Figure, error) {
	opt = opt.defaults()
	g, err := scenario.Generate(gapCurveSpec(opt))
	if err != nil {
		return nil, err
	}
	base := genDemand(g)
	perturbed := perturbDemand(base, 1.15, 0.9)
	profiles := core.DefaultProfiles(g.App, g.Top, base)

	fig := &Figure{
		ID:    "gapcurve",
		Title: "Anytime search: optimality gap vs evaluation budget (64 clusters, 32 classes)",
		Notes: []string{
			"64 clusters / 8 regions / 128 services / 32 classes, 200k RPS, ±15%/-10% class perturbation",
			"gap = (raced plan objective - simplex plan objective) / simplex plan objective",
			fmt.Sprintf("seed %d; budgets are deterministic move-evaluation counts, not wall time", opt.Seed),
		},
		Summary: map[string]float64{},
	}

	// Reference: the same warm-start tick solved by the sharded simplex
	// alone. Wall time for the perturbed tick goes into the notes.
	ref := core.NewShardedOptimizer(g.Top, g.App, core.Config{})
	if _, err := ref.Optimize(base, profiles, 1); err != nil {
		return nil, fmt.Errorf("gapcurve: reference cold tick: %w", err)
	}
	start := time.Now()
	refPlan, err := ref.Optimize(perturbed, profiles, 2)
	if err != nil {
		return nil, fmt.Errorf("gapcurve: reference warm tick: %w", err)
	}
	refWall := time.Since(start)
	fig.Summary["simplex_objective"] = refPlan.Objective
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("sharded simplex warm tick: %.1f ms wall", float64(refWall)/1e6))

	gapSeries := Series{Name: "achieved gap", XLabel: "move-evaluation budget", YLabel: "gap vs simplex"}
	shareSeries := Series{Name: "search share", XLabel: "move-evaluation budget", YLabel: "fraction of shards won"}
	for _, budget := range []int{32, 64, 128, 256, 512, 1024, 2048, 4096} {
		s := core.NewShardedOptimizer(g.Top, g.App, core.Config{})
		s.EnableSearch(core.RaceConfig{MoveBudget: budget, MaxGap: 1.0})
		if _, err := s.Optimize(base, profiles, 1); err != nil {
			return nil, fmt.Errorf("gapcurve: budget %d cold tick: %w", budget, err)
		}
		start := time.Now()
		plan, err := s.Optimize(perturbed, profiles, 2)
		if err != nil {
			return nil, fmt.Errorf("gapcurve: budget %d warm tick: %w", budget, err)
		}
		wall := time.Since(start)
		gap := 0.0
		if refPlan.Objective > 0 {
			gap = (plan.Objective - refPlan.Objective) / refPlan.Objective
			if gap < 0 {
				gap = 0
			}
		}
		st := s.Stats()
		share := 0.0
		if won := st.SearchSolves; won > 0 {
			share = float64(won) / float64(won+st.SimplexWins)
		}
		key := fmt.Sprintf("budget_%d", budget)
		fig.Summary["gap_"+key] = gap
		fig.Summary["search_share_"+key] = share
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("budget %4d: gap %.4f, %d/%d shards by search, %.1f ms wall",
				budget, gap, st.SearchSolves, st.SearchSolves+st.SimplexWins, float64(wall)/1e6))
		gapSeries.X = append(gapSeries.X, float64(budget))
		gapSeries.Y = append(gapSeries.Y, gap)
		shareSeries.X = append(shareSeries.X, float64(budget))
		shareSeries.Y = append(shareSeries.Y, share)
	}
	fig.Series = append(fig.Series, gapSeries, shareSeries)
	fig.Summary["gap_at_max_budget"] = gapSeries.Y[len(gapSeries.Y)-1]
	return fig, nil
}
