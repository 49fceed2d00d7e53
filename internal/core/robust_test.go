package core

import (
	"strings"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/queuemodel"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// TestRobustMarginZeroIsNominal pins the gating contract: DemandMargin
// 0 must build the exact same LP — same variable and constraint count,
// same solution — as a config with no robust fields at all, so turning
// the feature "on" with a zero margin provably changes nothing.
func TestRobustMarginZeroIsNominal(t *testing.T) {
	p := chainProblem(40*time.Millisecond, 700, 100, Config{})
	nomF, err := buildFormulation(p.Top, p.App, p.Config.normalized(), p.Demand, p.Profiles)
	if err != nil {
		t.Fatal(err)
	}
	robCfg := Config{DemandMargin: 0, Budget: 7}
	robF, err := buildFormulation(p.Top, p.App, robCfg.normalized(), p.Demand, p.Profiles)
	if err != nil {
		t.Fatal(err)
	}
	if nv, rv := nomF.model.NumVars(), robF.model.NumVars(); nv != rv {
		t.Fatalf("margin-0 robust model has %d vars, nominal %d", rv, nv)
	}
	if nc, rc := nomF.model.NumConstraints(), robF.model.NumConstraints(); nc != rc {
		t.Fatalf("margin-0 robust model has %d constraints, nominal %d", rc, nc)
	}

	nom, err := p.Optimize(1)
	if err != nil {
		t.Fatal(err)
	}
	p.Config = robCfg
	rob, err := p.Optimize(1)
	if err != nil {
		t.Fatal(err)
	}
	if nom.Objective != rob.Objective { //slate:nolint floatcmp -- identical LPs must solve bit-identically
		t.Fatalf("margin-0 objective %v differs from nominal %v", rob.Objective, nom.Objective)
	}
	if diff := routing.Diff(nom.Table, rob.Table); len(diff) != 0 {
		t.Fatalf("margin-0 table differs from nominal: %v", diff)
	}
}

// TestRobustBoxProtectsAgainstSurge is the point of the feature: a
// robust table stays feasible when every class's demand actually rises
// to the margin, while the nominal table (which kept the near-capacity
// load local) is pushed past the utilization cap.
func TestRobustBoxProtectsAgainstSurge(t *testing.T) {
	const margin = 0.25
	// 80ms RTT makes offload expensive enough that the nominal plan
	// keeps all 640 RPS local (80% of the 800-RPS pool); the 1.25×
	// box corner (800 RPS) then blows past the 760-RPS utilization
	// cap that the robust plan provisioned for.
	base := chainProblem(80*time.Millisecond, 640, 100, Config{})
	nom, err := base.Optimize(1)
	if err != nil {
		t.Fatal(err)
	}
	robProb := chainProblem(80*time.Millisecond, 640, 100, Config{DemandMargin: margin})
	rob, err := robProb.Optimize(1)
	if err != nil {
		t.Fatal(err)
	}
	if rob.Objective <= nom.Objective {
		t.Fatalf("robust objective %v not above nominal %v (worst-case padding is priced)", rob.Objective, nom.Objective)
	}

	// The surge arrives: both classes of demand rise to the box corner.
	surged := chainProblem(80*time.Millisecond, 640*(1+margin), 100*(1+margin), Config{})
	if _, err := EvaluateTable(surged, rob.Table); err != nil {
		t.Fatalf("robust table infeasible under the surge it was built for: %v", err)
	}
	if _, err := EvaluateTable(surged, nom.Table); err == nil {
		t.Fatalf("nominal table survived the surge too; scenario does not separate robust from nominal")
	} else if !strings.Contains(err.Error(), "infeasible") {
		t.Fatalf("nominal table failed for an unexpected reason: %v", err)
	}
}

// twoClassProblem builds the §4.4 two-class app (L light, H heavy on a
// shared worker pool) for budget tests, where Γ=1 and the box differ.
func twoClassProblem(cfg Config) *Problem {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := appgraph.TwoClassApp(appgraph.TwoClassOptions{})
	demand := Demand{
		"L": {topology.West: 300, topology.East: 50},
		"H": {topology.West: 150, topology.East: 40},
	}
	return &Problem{Top: top, App: app, Demand: demand,
		Profiles: DefaultProfiles(app, top, demand), Config: cfg}
}

// TestRobustBudgetOrdersObjectives pins the Bertsimas–Sim lattice:
// nominal ≤ Γ=1 ≤ box (Γ=#classes), with the ends strictly separated —
// protecting against one surging class costs less than protecting
// against all of them at once.
func TestRobustBudgetOrdersObjectives(t *testing.T) {
	const margin = 0.3
	objs := make([]float64, 0, 3)
	for _, cfg := range []Config{
		{},
		{DemandMargin: margin, Budget: 1},
		{DemandMargin: margin}, // Budget 0 = box
	} {
		plan, err := twoClassProblem(cfg).Optimize(1)
		if err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}
		objs = append(objs, plan.Objective)
	}
	nom, g1, box := objs[0], objs[1], objs[2]
	if !(nom <= g1+1e-9 && g1 <= box+1e-9) {
		t.Fatalf("objectives not ordered nominal ≤ Γ=1 ≤ box: %v", objs)
	}
	if box <= nom*(1+1e-9) {
		t.Fatalf("box objective %v not strictly above nominal %v", box, nom)
	}
}

// TestRobustEvaluateTableMatchesPlan checks assign's dual fill: scoring
// the robust plan's own table on the robust LP must reproduce the
// solver's objective, which requires z and q to sit at the exact inner
// maximum (otherwise the segment fill — and the objective — drifts).
func TestRobustEvaluateTableMatchesPlan(t *testing.T) {
	for _, cfg := range []Config{
		{DemandMargin: 0.25},
		{DemandMargin: 0.3, Budget: 1},
	} {
		p := twoClassProblem(cfg)
		plan, err := p.Optimize(1)
		if err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}
		got, err := EvaluateTable(p, plan.Table)
		if err != nil {
			t.Fatalf("config %+v: plan's own table infeasible: %v", cfg, err)
		}
		if !within(got, plan.Objective) {
			t.Fatalf("config %+v: EvaluateTable %v vs plan objective %v", cfg, got, plan.Objective)
		}
	}
}

// TestRobustWarmUpdateMatchesRebuild drives the cached Optimizer
// through demand drift and a profile refit (changed reference service
// times rewrite the robust surge rows in place) and checks it tracks a
// from-scratch build of the robust LP.
func TestRobustWarmUpdateMatchesRebuild(t *testing.T) {
	cfg := Config{DemandMargin: 0.25}
	top := topology.TwoClusters(40 * time.Millisecond)
	app := appgraph.TwoClassApp(appgraph.TwoClassOptions{})
	demand := Demand{
		"L": {topology.West: 300, topology.East: 50},
		"H": {topology.West: 150, topology.East: 40},
	}
	profs := DefaultProfiles(app, top, demand)
	opt := NewOptimizer(top, app, cfg)
	if _, err := opt.Optimize(demand, profs, 1); err != nil {
		t.Fatalf("initial robust solve: %v", err)
	}

	// Tick 2: demand drift only (warm in-place RHS update).
	demand["L"][topology.West] = 340
	demand["H"][topology.East] = 60
	warm, err := opt.Optimize(demand, profs, 2)
	if err != nil {
		t.Fatalf("drift: %v", err)
	}
	cold, err := (&Problem{Top: top, App: app, Demand: demand, Profiles: profs, Config: cfg}).Optimize(2)
	if err != nil {
		t.Fatalf("drift stateless: %v", err)
	}
	if !within(warm.Objective, cold.Objective) {
		t.Fatalf("after drift: warm %v vs cold %v", warm.Objective, cold.Objective)
	}

	// Tick 3: profile refit stretches a reference service time, which
	// must rescale the -margin·(mst/ref) coefficients in the rob rows.
	pp, ok := profs.Get("worker", topology.West)
	if !ok {
		t.Fatal("missing worker/west profile")
	}
	pp.RefServiceTime = pp.RefServiceTime * 3 / 2
	pp.Model = queuemodel.NewMMc(pp.Servers, pp.RefServiceTime)
	profs.set("worker", topology.West, pp)
	warm, err = opt.Optimize(demand, profs, 3)
	if err != nil {
		t.Fatalf("refit: %v", err)
	}
	cold, err = (&Problem{Top: top, App: app, Demand: demand, Profiles: profs, Config: cfg}).Optimize(3)
	if err != nil {
		t.Fatalf("refit stateless: %v", err)
	}
	if !within(warm.Objective, cold.Objective) {
		t.Fatalf("after refit: warm %v vs cold %v", warm.Objective, cold.Objective)
	}
	if st := opt.Stats(); st.Builds != 1 {
		t.Fatalf("builds = %d, want 1 (drift and refit are in-place updates)", st.Builds)
	}
}

// TestRobustShardedMatchesMonolithic checks the decomposition stays
// exact under the robust box formulation: the frontend's worst-case
// padding is a constant per shard (root flows are pinned), so shard
// argmins — and with the box set even the summed objective — must
// reproduce the monolithic robust plan.
func TestRobustShardedMatchesMonolithic(t *testing.T) {
	cfg := Config{DemandMargin: 0.25} // Budget 0 = box: per-shard budgets sum exactly
	top := topology.TwoClusters(30 * time.Millisecond)
	app := starTestApp(3, appgraph.ReplicaPool{Replicas: 2, Concurrency: 64},
		appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}, topology.West, topology.East)
	demand := starDemand(app, 350, 80)
	demand["cb"][topology.West] = 500
	profs := DefaultProfiles(app, top, demand)

	sharded := NewShardedOptimizer(top, app, cfg)
	if sharded.Shards() < 2 {
		t.Fatalf("want ≥ 2 shards, got %d", sharded.Shards())
	}
	sp, err := sharded.Optimize(demand, profs, 1)
	if err != nil {
		t.Fatalf("sharded robust: %v", err)
	}
	mp, err := (&Problem{Top: top, App: app, Demand: demand, Profiles: profs, Config: cfg}).Optimize(1)
	if err != nil {
		t.Fatalf("monolithic robust: %v", err)
	}
	plansEquivalent(t, mp, sp, 1e-6)
	if !within(sp.Objective, mp.Objective) {
		t.Fatalf("sharded robust objective %v vs monolithic %v", sp.Objective, mp.Objective)
	}
	for i := range mp.Loads {
		if !within(sp.Loads[i].StdRPS, mp.Loads[i].StdRPS) {
			t.Fatalf("pool %v: sharded load %v vs monolithic %v", mp.Loads[i].Key, sp.Loads[i].StdRPS, mp.Loads[i].StdRPS)
		}
	}
}

// TestRobustRaceStaysFeasible arms the search race on a robust sharded
// optimizer and drives demand drift: whatever leg wins, every published
// plan must be feasible on the exact robust LP with an objective within
// the configured gap of a fresh robust simplex solve.
func TestRobustRaceStaysFeasible(t *testing.T) {
	const gap = 0.35
	cfg := Config{DemandMargin: 0.2}
	top := topology.TwoClusters(30 * time.Millisecond)
	app := starTestApp(2, appgraph.ReplicaPool{Replicas: 2, Concurrency: 64},
		appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}, topology.West, topology.East)
	demand := starDemand(app, 350, 80)
	profs := DefaultProfiles(app, top, demand)
	so := NewShardedOptimizer(top, app, cfg)
	so.EnableSearch(RaceConfig{MaxGap: gap})

	for tick := 1; tick <= 12; tick++ {
		plan, err := so.Optimize(demand, profs, uint64(tick))
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		prob := &Problem{Top: top, App: app, Demand: copyDemandForTest(demand), Profiles: profs, Config: cfg}
		score, err := EvaluateTable(prob, plan.Table)
		if err != nil {
			t.Fatalf("tick %d: published robust table infeasible: %v", tick, err)
		}
		exact, err := prob.Optimize(uint64(tick))
		if err != nil {
			t.Fatalf("tick %d: exact: %v", tick, err)
		}
		if limit := exact.Objective / (1 - gap); score > limit*(1+1e-9) {
			t.Fatalf("tick %d: published objective %v beyond gap %v of optimum %v", tick, score, gap, exact.Objective)
		}
		// Drift so shards go dirty and the race fires each tick.
		for _, cl := range app.Classes {
			demand[cl.Name][topology.West] *= 1.03
			demand[cl.Name][topology.East] *= 0.97
		}
	}
	st := so.Stats()
	if st.SearchSolves+st.SimplexWins == 0 {
		t.Fatalf("race never ran: %+v", st)
	}
	if st.SubSolves < 2 {
		t.Fatalf("shards never went dirty: %+v", st)
	}
}

func copyDemandForTest(d Demand) Demand {
	out := make(Demand, len(d))
	for class, per := range d {
		cp := make(map[topology.ClusterID]float64, len(per))
		for c, v := range per {
			cp[c] = v
		}
		out[class] = cp
	}
	return out
}
