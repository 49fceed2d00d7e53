package experiments

import (
	"math"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/fault"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// teePolicy drives the simulation with the controller — whose planner
// is the sharded, fingerprint-skipping pipeline — while a whole-app
// core.Optimizer solves the controller's own demand and profiles every
// time it plans, asserting that the two emit equivalent tables. This is
// the differential proof that decomposition is an optimization, not a
// semantic change. Every case runs with MaxStep 0 and no guard, so a
// planning tick publishes its plan unstepped.
type teePolicy struct {
	t        *testing.T
	ctrl     *core.Controller
	ref      *core.Optimizer
	ticks    int
	compared int
}

func (p *teePolicy) Name() string { return "slate" }

func (p *teePolicy) Init() (*routing.Table, error) {
	tab, err := p.ctrl.Prime()
	p.compare("prime", tab, err)
	return tab, err
}

func (p *teePolicy) Tick(stats []telemetry.WindowStats, window time.Duration) (*routing.Table, error) {
	before := p.ctrl.Version()
	tab, err := p.ctrl.Tick(stats, window)
	if p.ctrl.Version() != before {
		p.compare("tick", tab, err)
	}
	p.ticks++
	return tab, err
}

// compare solves the reference on the controller's current inputs at
// the version the controller just planned and checks the outcomes agree.
func (p *teePolicy) compare(at string, tab *routing.Table, err error) {
	p.compared++
	plan, refErr := p.ref.Optimize(p.ctrl.Demand(), p.ctrl.Profiles(), p.ctrl.Version())
	if (err == nil) != (refErr == nil) {
		p.t.Errorf("%s %d: decomposed err = %v, monolithic err = %v", at, p.ticks, err, refErr)
		return
	}
	if err == nil {
		tablesEquivalent(p.t, at, plan.Table, tab, 1e-6)
	}
}

// tablesEquivalent compares routing decisions over the union of keys
// and destination clusters of both tables.
func tablesEquivalent(t *testing.T, at string, a, b *routing.Table, eps float64) {
	t.Helper()
	keys := map[routing.Key]bool{}
	for _, k := range a.Keys() {
		keys[k] = true
	}
	for _, k := range b.Keys() {
		keys[k] = true
	}
	for k := range keys {
		da, okA := a.Get(k)
		db, okB := b.Get(k)
		clusters := map[topology.ClusterID]bool{}
		if okA {
			for _, c := range da.Clusters() {
				clusters[c] = true
			}
		}
		if okB {
			for _, c := range db.Clusters() {
				clusters[c] = true
			}
		}
		for c := range clusters {
			var wa, wb float64
			if okA {
				wa = da.Weight(c)
			}
			if okB {
				wb = db.Weight(c)
			}
			if math.Abs(wa-wb) > eps {
				t.Errorf("%s: rule %v → %s: monolithic %v vs decomposed %v", at, k, c, wa, wb)
				return
			}
		}
	}
}

// differentialCase builds one scenario plus the controller config its
// figure uses; the test runs it under the tee.
type differentialCase struct {
	name string
	scn  simrun.Scenario
	cfg  core.ControllerConfig
}

func differentialCases(t *testing.T) []differentialCase {
	t.Helper()
	const dur, warm = 24 * time.Second, 4 * time.Second

	// fig6a: two-cluster chain, west overloaded.
	topA := topology.TwoClusters(40 * time.Millisecond)
	appA := chainApp(topology.West, topology.East)
	demandA := map[topology.ClusterID]float64{topology.West: 900, topology.East: 100}

	// fig6b: GCP topology, OR and IOW overloaded.
	topB := topology.GCPTopology()
	appB := chainApp(topB.ClusterIDs()...)
	demandB := map[topology.ClusterID]float64{
		topology.OR: 1090, topology.UT: 100, topology.IOW: 1090, topology.SC: 100,
	}

	// fig6c: anomaly detection with DB only in east, degraded west MP.
	topC := topology.TwoClusters(40 * time.Millisecond)
	appC := appgraph.AnomalyDetection(appgraph.AnomalyOptions{
		Clusters:    []topology.ClusterID{topology.West, topology.East},
		DBClusters:  []topology.ClusterID{topology.East},
		ProcessTime: 8 * time.Millisecond,
		QueryTime:   4 * time.Millisecond,
		Pool:        appgraph.ReplicaPool{Replicas: 3, Concurrency: 4},
	})
	appC.Services[appgraph.AnomalyMP].Placement[topology.West] = appgraph.ReplicaPool{Replicas: 1, Concurrency: 4}
	demandC := map[topology.ClusterID]float64{topology.West: 600, topology.East: 100}

	// fig6d: two traffic classes sharing one worker pool.
	topD := topology.TwoClusters(30 * time.Millisecond)
	appD := appgraph.TwoClassApp(appgraph.TwoClassOptions{
		LightTime: 2 * time.Millisecond,
		HeavyTime: 20 * time.Millisecond,
		Pool:      appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
	})
	demandDL := map[topology.ClusterID]float64{topology.West: 400, topology.East: 50}
	demandDH := map[topology.ClusterID]float64{topology.West: 330, topology.East: 50}

	// chaos: the fault schedule from the Chaos experiment, compressed.
	sched := fault.NewSchedule()
	sched.Outage(fault.Global, 6*time.Second, 8*time.Second)
	sched.Partition(topology.West, topology.East, 8*time.Second, 5*time.Second)
	sched.Flap(fault.Global, 16*time.Second, 2, 1*time.Second, 3*time.Second)

	return []differentialCase{
		{
			name: "fig6a",
			scn: simrun.Scenario{
				Name: "fig6a", Top: topA, App: appA,
				Workload: steady("default", demandA),
				Duration: dur, Warmup: warm, Seed: 42,
				ControlPeriod: 2 * time.Second,
			},
		},
		{
			name: "fig6b",
			scn: simrun.Scenario{
				Name: "fig6b", Top: topB, App: appB,
				Workload: steady("default", demandB),
				Duration: dur, Warmup: warm, Seed: 42,
				ControlPeriod: 2 * time.Second,
			},
		},
		{
			name: "fig6c",
			scn: simrun.Scenario{
				Name: "fig6c", Top: topC, App: appC,
				Workload: steady("detect", demandC),
				Duration: dur, Warmup: warm, Seed: 42,
				ControlPeriod: 2 * time.Second,
			},
			cfg: core.ControllerConfig{Optimizer: core.Config{LatencyWeight: 1, CostWeight: 1e4}},
		},
		{
			name: "fig6d",
			scn: simrun.Scenario{
				Name: "fig6d", Top: topD, App: appD,
				Workload: append(steady("L", demandDL), steady("H", demandDH)...),
				Duration: dur, Warmup: warm, Seed: 42,
				ControlPeriod: 2 * time.Second,
			},
		},
		{
			name: "chaos",
			scn: simrun.Scenario{
				Name: "chaos", Top: topA, App: appA,
				Workload: steady("default", map[topology.ClusterID]float64{topology.West: 700, topology.East: 100}),
				Duration: dur, Warmup: warm,
				ControlPeriod: 2 * time.Second,
				Seed:          42,
				Faults:        sched,
				RuleTTL:       6 * time.Second,
			},
		},
	}
}

// TestDecomposedMatchesMonolithic proves the sharded incremental
// pipeline is behavior-preserving: across every fig6 scenario and the
// chaos fault schedule, the controller emits the same routing tables on
// every planning tick as a whole-app optimizer given its inputs.
func TestDecomposedMatchesMonolithic(t *testing.T) {
	for _, tc := range differentialCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, err := core.NewController(tc.scn.Top, tc.scn.App, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctrl.SetDemand(copyDemand(demandFromWorkload(tc.scn)))
			tee := &teePolicy{t: t, ctrl: ctrl, ref: core.NewOptimizer(tc.scn.Top, tc.scn.App, tc.cfg.Optimizer)}
			if _, err := simrun.Run(tc.scn, tee); err != nil {
				t.Fatal(err)
			}
			if tee.ticks == 0 || tee.compared <= 1 {
				t.Fatalf("tee policy ticked %d times and compared %d plans; differential comparison is vacuous", tee.ticks, tee.compared)
			}
			if ctrl.OptimizerStats().Shards == 0 {
				t.Errorf("decomposed controller reports 0 shards")
			}
		})
	}
}

// demandFromWorkload recovers the priming demand from the scenario's
// steady workload phases so both controllers start identically.
func demandFromWorkload(scn simrun.Scenario) core.Demand {
	d := core.Demand{}
	for _, spec := range scn.Workload {
		if d[spec.Class] == nil {
			d[spec.Class] = map[topology.ClusterID]float64{}
		}
		d[spec.Class][spec.Cluster] += spec.Phases[0].RPS
	}
	return d
}
