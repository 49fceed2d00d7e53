package simrun

import (
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/fault"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

// fourClusterScenario builds a 4-cluster mesh with a two-tier app (fe →
// worker, both everywhere) and arrivals at every cluster. The returned
// table splits each cluster's worker traffic 70% local / 30% to the
// next cluster, so every shard boundary carries real traffic.
func fourClusterScenario(seed int64) (Scenario, Policy) {
	ids := []topology.ClusterID{"a", "b", "c", "d"}
	b := topology.NewBuilder(0.05)
	for _, id := range ids {
		b.AddCluster(id, string(id))
	}
	rtts := []time.Duration{16, 20, 24, 28, 32, 36}
	k := 0
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			b.SetRTT(ids[i], ids[j], rtts[k]*time.Millisecond)
			k++
		}
	}
	top := b.MustBuild()

	pool := appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}
	app := &appgraph.App{
		Name: "par",
		Services: map[appgraph.ServiceID]*appgraph.Service{
			"fe": {ID: "fe", Placement: appgraph.Uniform(appgraph.ReplicaPool{Replicas: 1, Concurrency: 64}, ids...)},
			"wk": {ID: "wk", Placement: appgraph.Uniform(pool, ids...)},
		},
		Classes: []*appgraph.Class{{Name: "c", Root: &appgraph.CallNode{
			Service: "fe", Method: "GET", Path: "/", Count: 1,
			Work: appgraph.Work{MeanServiceTime: 200 * time.Microsecond},
			Children: []*appgraph.CallNode{{
				Service: "wk", Method: "GET", Path: "/w", Count: 1,
				Work: appgraph.Work{MeanServiceTime: 4 * time.Millisecond, RequestBytes: 800, ResponseBytes: 4000},
			}},
		}}},
	}

	rules := map[routing.Key]routing.Distribution{}
	for i, id := range ids {
		next := ids[(i+1)%len(ids)]
		d, err := routing.NewDistribution(map[topology.ClusterID]float64{
			id: 0.7, next: 0.3,
		})
		if err != nil {
			panic(err)
		}
		rules[routing.Key{Service: "wk", Class: routing.AnyClass, Cluster: id}] = d
	}
	var specs []workload.Spec
	for _, id := range ids {
		specs = append(specs, workload.Steady("c", id, 40))
	}
	return Scenario{
		Name:     "four-cluster",
		Top:      top,
		App:      app,
		Workload: specs,
		Duration: 20 * time.Second,
		Warmup:   2 * time.Second,
		Seed:     seed,
	}, Static("split", routing.NewTable(1, rules))
}

// resultFingerprint folds everything determinism-relevant in a result
// into comparable form (samples included — bit-identical means
// bit-identical latencies, not just matching summaries).
func resultFingerprint(t *testing.T, r *Result) []interface{} {
	t.Helper()
	var samples []time.Duration
	for _, cl := range []string{"c"} {
		samples = append(samples, r.PerClass[cl].Samples...)
	}
	return []interface{}{
		r.Generated, r.Completed, r.Failed, r.Mean, r.P50, r.P99,
		r.EgressBytes, r.RemoteFraction, r.DegradedCalls,
		r.Parallel.Messages, r.Parallel.Windows, samples,
	}
}

// TestParallelDeterminismAcrossGOMAXPROCS is the tentpole invariant:
// the sharded run is bit-identical at any core count. The CI
// determinism matrix re-runs this test at GOMAXPROCS=1,2,8.
func TestParallelDeterminismAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) *Result {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		scn, pol := fourClusterScenario(11)
		res, err := RunParallel(scn, pol, ParallelOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	if base.Parallel.Shards != 4 {
		t.Fatalf("got %d shards, want 4", base.Parallel.Shards)
	}
	if base.Parallel.Messages == 0 {
		t.Fatal("no cross-shard messages; the test scenario is not exercising shard boundaries")
	}
	want := resultFingerprint(t, base)
	for _, procs := range []int{2, 8} {
		got := resultFingerprint(t, run(procs))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS=%d result differs from GOMAXPROCS=1", procs)
		}
	}
}

func TestParallelDeterminismRepeatedRuns(t *testing.T) {
	scn, pol := fourClusterScenario(7)
	r1, err := RunParallel(scn, pol, ParallelOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	scn2, pol2 := fourClusterScenario(7)
	r2, err := RunParallel(scn2, pol2, ParallelOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultFingerprint(t, r1), resultFingerprint(t, r2)) {
		t.Fatal("same seed and shard count produced different results")
	}
}

// requireSameResult fails unless two runs of one scenario agree
// exactly: counters, egress, remote fraction, latency moments, and every
// class's latency samples. Samples are compared as sorted copies: the
// engine concatenates them per shard in shard order, so their order
// depends on the partition but their multiset does not.
func requireSameResult(t *testing.T, what string, want, got *Result) {
	t.Helper()
	type summary struct {
		Generated, Completed, Failed uint64
		EgressBytes                  int64
		RemoteFraction               float64
		Mean, P50, P99               time.Duration
	}
	sum := func(r *Result) summary {
		return summary{r.Generated, r.Completed, r.Failed, r.EgressBytes, r.RemoteFraction, r.Mean, r.P50, r.P99}
	}
	if sum(want) != sum(got) {
		t.Fatalf("%s: results differ:\n want %+v\n  got %+v", what, sum(want), sum(got))
	}
	sorted := func(s []time.Duration) []time.Duration {
		s = append([]time.Duration(nil), s...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s
	}
	for name, wc := range want.PerClass {
		gc := got.PerClass[name]
		if gc == nil || !reflect.DeepEqual(sorted(wc.Samples), sorted(gc.Samples)) {
			t.Fatalf("%s: class %s latency samples differ", what, name)
		}
	}
}

// TestParallelMatchesSerialDeterministicRouting pins the differential
// contract on a scenario whose routing is deterministic (single-target
// rules): Run (one shard) and a 4-shard run must agree exactly.
func TestParallelMatchesSerialDeterministicRouting(t *testing.T) {
	scn, _ := fourClusterScenario(5)
	rules := map[routing.Key]routing.Distribution{}
	for _, id := range scn.Top.ClusterIDs() {
		rules[routing.Key{Service: "wk", Class: routing.AnyClass, Cluster: id}] = routing.Local("a")
	}
	pol := Static("all-to-a", routing.NewTable(1, rules))

	serial, err := Run(scn, pol)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(scn, pol, ParallelOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "4 shards vs Run", serial, par)
}

// TestParallelMatchesSerialStatistically covers weighted (randomized)
// routing: picks come from per-cluster streams, so Run (one shard) and
// a 4-shard run draw the same picks and must agree exactly.
func TestParallelMatchesSerialStatistically(t *testing.T) {
	scn, pol := fourClusterScenario(9)
	serial, err := Run(scn, pol)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(scn, pol, ParallelOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "4 shards vs Run", serial, par)
}

// TestParallelPartitionProperties checks buildPartition: full coverage,
// bounded shard count, correct lookahead, and class coalescing when the
// app decomposes into independent cluster groups.
func TestParallelPartitionProperties(t *testing.T) {
	scn, _ := fourClusterScenario(1)
	p := buildPartition(&scn, 4)
	if len(p.owned) != 4 {
		t.Fatalf("got %d shards, want 4", len(p.owned))
	}
	seen := map[topology.ClusterID]bool{}
	for s, cs := range p.owned {
		for _, c := range cs {
			if p.shardOf[c] != s {
				t.Fatalf("cluster %s owned by shard %d but mapped to %d", c, s, p.shardOf[c])
			}
			seen[c] = true
		}
	}
	if len(seen) != 4 {
		t.Fatalf("partition covers %d clusters, want 4", len(seen))
	}
	// Min cross-shard one-way delay: all clusters in distinct shards, so
	// it is the global min RTT/2 = 8ms.
	if p.lookahead != 8*time.Millisecond {
		t.Fatalf("lookahead %v, want 8ms", p.lookahead)
	}
	// Requesting more shards than clusters caps at the cluster count.
	p = buildPartition(&scn, 64)
	if len(p.owned) != 4 {
		t.Fatalf("got %d shards for want=64, want 4", len(p.owned))
	}
	p = buildPartition(&scn, 1)
	if len(p.owned) != 1 {
		t.Fatalf("got %d shards for want=1, want 1", len(p.owned))
	}
}

// TestParallelCoalescesCoupledClusters: when classes form independent
// cluster groups and fewer shards are requested than clusters, coupled
// clusters land in the same shard (no cross-shard messages at all).
func TestParallelCoalescesCoupledClusters(t *testing.T) {
	ids := []topology.ClusterID{"a", "b", "c", "d"}
	b := topology.NewBuilder(0)
	for _, id := range ids {
		b.AddCluster(id, string(id))
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			b.SetRTT(ids[i], ids[j], 20*time.Millisecond)
		}
	}
	top := b.MustBuild()
	pool := appgraph.ReplicaPool{Replicas: 1, Concurrency: 8}
	// fe everywhere (shared frontend requirement); workers pair up the
	// clusters: w1 in {a, b}, w2 in {c, d}.
	app := &appgraph.App{
		Name: "paired",
		Services: map[appgraph.ServiceID]*appgraph.Service{
			"fe": {ID: "fe", Placement: appgraph.Uniform(appgraph.ReplicaPool{Replicas: 1, Concurrency: 64}, ids...)},
			"w1": {ID: "w1", Placement: appgraph.Uniform(pool, "a", "b")},
			"w2": {ID: "w2", Placement: appgraph.Uniform(pool, "c", "d")},
		},
		Classes: []*appgraph.Class{
			{Name: "c1", Root: &appgraph.CallNode{
				Service: "fe", Method: "GET", Path: "/1", Count: 1,
				Work:     appgraph.Work{MeanServiceTime: 100 * time.Microsecond},
				Children: []*appgraph.CallNode{{Service: "w1", Method: "GET", Path: "/w", Count: 1, Work: appgraph.Work{MeanServiceTime: time.Millisecond}}},
			}},
			{Name: "c2", Root: &appgraph.CallNode{
				Service: "fe", Method: "GET", Path: "/2", Count: 1,
				Work:     appgraph.Work{MeanServiceTime: 100 * time.Microsecond},
				Children: []*appgraph.CallNode{{Service: "w2", Method: "GET", Path: "/w", Count: 1, Work: appgraph.Work{MeanServiceTime: time.Millisecond}}},
			}},
		},
	}
	scn := Scenario{
		Name: "paired", Top: top, App: app,
		Workload: []workload.Spec{
			workload.Steady("c1", "a", 20), workload.Steady("c1", "b", 20),
			workload.Steady("c2", "c", 20), workload.Steady("c2", "d", 20),
		},
		Duration: 5 * time.Second, Warmup: time.Second, Seed: 3,
	}
	p := buildPartition(&scn, 2)
	if len(p.owned) != 2 {
		t.Fatalf("got %d shards, want 2", len(p.owned))
	}
	if p.shardOf["a"] != p.shardOf["b"] || p.shardOf["c"] != p.shardOf["d"] || p.shardOf["a"] == p.shardOf["c"] {
		t.Fatalf("coupled clusters split across shards: %v", p.shardOf)
	}
	// With a local-only table the class groups never talk across the
	// boundary: zero cross-shard messages.
	res, err := RunParallel(scn, Static("local", routing.EmptyTable()), ParallelOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parallel.Messages != 0 {
		t.Fatalf("expected zero cross-shard messages for decoupled groups, got %d", res.Parallel.Messages)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
}

// TestParallelFaultsAndDegradation: partitions and rule-TTL degradation
// behave under sharding and stay deterministic.
func TestParallelFaultsAndDegradation(t *testing.T) {
	run := func() *Result {
		scn, pol := fourClusterScenario(13)
		scn.ControlPeriod = time.Second
		scn.RuleTTL = 1500 * time.Millisecond
		// Partition while rules are still fresh (cross-cluster routing
		// active); the outage later pushes rules past the TTL so calls
		// degrade to local — both failure modes in one run.
		scn.Faults = fault.NewSchedule().
			Outage(fault.Global, 10*time.Second, 8*time.Second).
			Partition("a", "b", 3*time.Second, 3*time.Second)
		res, err := RunParallel(scn, pol, ParallelOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run()
	if r1.MissedTicks == 0 {
		t.Error("global outage missed no ticks")
	}
	if r1.DegradedCalls == 0 {
		t.Error("rule TTL expired but no calls degraded")
	}
	if r1.Failed == 0 || r1.Availability >= 1 {
		t.Errorf("partition produced no failures (failed=%d, availability=%v)", r1.Failed, r1.Availability)
	}
	r2 := run()
	if !reflect.DeepEqual(resultFingerprint(t, r1), resultFingerprint(t, r2)) {
		t.Fatal("faulted parallel run is not reproducible")
	}
}

// TestParallelDynamics: a scheduled pool shrink must degrade latency on
// one shard and on four, and Dynamics must validate.
func TestParallelDynamics(t *testing.T) {
	// Hot enough that halving wk@a (8 → 4 servers at ~700 rps, ρ 0.35 →
	// 0.7) visibly queues.
	hot := func() Scenario {
		s, _ := fourClusterScenario(17)
		for i := range s.Workload {
			s.Workload[i].Phases = []workload.Phase{{RPS: 700}}
		}
		s.Duration = 10 * time.Second
		return s
	}
	_, pol := fourClusterScenario(17)
	base := hot()
	shrunk := hot()
	shrunk.Dynamics = []PoolEvent{
		{At: 4 * time.Second, Service: "wk", Cluster: "a", Replicas: 1},
	}
	for _, runner := range []struct {
		name string
		run  func(Scenario) (*Result, error)
	}{
		{"one shard", func(s Scenario) (*Result, error) { return Run(s, pol) }},
		{"four shards", func(s Scenario) (*Result, error) { return RunParallel(s, pol, ParallelOptions{Shards: 4}) }},
	} {
		rBase, err := runner.run(base)
		if err != nil {
			t.Fatal(err)
		}
		rShrunk, err := runner.run(shrunk)
		if err != nil {
			t.Fatal(err)
		}
		if rShrunk.Mean <= rBase.Mean {
			t.Errorf("%s: halving wk@a capacity did not raise mean latency (%v <= %v)",
				runner.name, rShrunk.Mean, rBase.Mean)
		}
	}

	bad := base
	bad.Dynamics = []PoolEvent{{At: time.Second, Service: "ghost", Cluster: "a", Replicas: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("dynamics referencing unknown service validated")
	}
	bad.Dynamics = []PoolEvent{{At: time.Second, Service: "wk", Cluster: "a", Replicas: 0}}
	if err := bad.Validate(); err == nil {
		t.Error("dynamics with zero replicas validated")
	}
}

func TestParallelSpanExport(t *testing.T) {
	scn, pol := fourClusterScenario(21)
	scn.Duration = 6 * time.Second
	sink := &memSink{}
	scn.SpanSink = sink
	res, err := RunParallel(scn, pol, ParallelOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.spans) == 0 {
		t.Fatal("no spans exported")
	}
	// Global export order is (Start, Trace, ID)-sorted.
	for i := 1; i < len(sink.spans); i++ {
		if sink.spans[i].Start < sink.spans[i-1].Start {
			t.Fatalf("span %d starts before its predecessor", i)
		}
	}
	// Parents exist for every non-root span, across shard boundaries.
	ids := map[uint64]bool{}
	for _, sp := range sink.spans {
		ids[uint64(sp.ID)] = true
	}
	for _, sp := range sink.spans {
		if sp.Parent != 0 && !ids[uint64(sp.Parent)] {
			t.Fatalf("span %d has unknown parent %d", sp.ID, sp.Parent)
		}
	}
	// 2 spans per completed request (fe + wk).
	if got, want := uint64(len(sink.spans)), 2*res.Completed; got != want {
		t.Fatalf("exported %d spans for %d completions, want %d", got, res.Completed, want)
	}
}

// TestParallelControlLoopConverges: a live policy tick at barriers
// produces a timeline and tables that actually route (smoke test that
// the coordinator's barrier tick wiring works end to end).
func TestParallelControlLoopConverges(t *testing.T) {
	scn, pol := fourClusterScenario(23)
	scn.ControlPeriod = time.Second
	res, err := RunParallel(scn, pol, ParallelOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) < 10 {
		t.Fatalf("timeline has %d points, want >= 10", len(res.Timeline))
	}
	if res.Parallel.Windows == 0 {
		t.Fatal("no synchronization windows ran")
	}
}

// TestParallelOneShardWindowsOnlyAtTicks pins the one-shard window count
// on the Fig 6a scenario: with no cross-shard events the control ticks
// are the only barriers, so a run does at most ticks + a small constant
// windows, not one per millisecond of lookahead. The count is
// deterministic, so any return to fine-grained windows fails here.
func TestParallelOneShardWindowsOnlyAtTicks(t *testing.T) {
	for _, period := range []time.Duration{0, time.Second} {
		scn := Scenario{
			Name: "fig6a",
			Top:  topology.TwoClusters(40 * time.Millisecond),
			App:  appgraph.LinearChain(appgraph.ChainOptions{}),
			Workload: []workload.Spec{
				workload.Steady("default", topology.East, 100),
				workload.Steady("default", topology.West, 900),
			},
			Duration:      20 * time.Second,
			Warmup:        2 * time.Second,
			ControlPeriod: period,
			Seed:          42,
		}
		res, err := Run(scn, Static("local", routing.EmptyTable()))
		if err != nil {
			t.Fatal(err)
		}
		ticks := uint64(0)
		if period > 0 {
			ticks = uint64((scn.Duration - 1) / period)
		}
		if res.Parallel.Shards != 1 {
			t.Fatalf("period %v: Run used %d shards, want 1", period, res.Parallel.Shards)
		}
		if got, max := res.Parallel.Windows, ticks+3; got > max {
			t.Fatalf("period %v: %d windows for %d control ticks, want <= %d", period, got, ticks, max)
		}
	}
}
