package emul

import (
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/controlplane"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/fault"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// TestMeshReplicatedControlPlaneFailsOver runs the mesh with three
// global replicas, crashes the elected leader, and checks a rival takes
// over once the lease lapses — with the routing tables still flowing.
func TestMeshReplicatedControlPlaneFailsOver(t *testing.T) {
	const ttl = 300 * time.Millisecond
	inj := fault.NewInjector(sim.NewRNG(7))
	m := startMesh(t, Options{
		Top:        topology.TwoClusters(10 * time.Millisecond),
		App:        smallChain(),
		NetemScale: 0.1,
		Seed:       1,
		Fault:      inj,
		Controller: core.ControllerConfig{DemandSmoothing: 1},
		Replicas:   3,
		HA:         controlplane.HAConfig{LeaseTTL: ttl, EventThreshold: -1},
	})
	if got := len(m.Globals()); got != 3 {
		t.Fatalf("replicas = %d, want 3", got)
	}
	// Synthetic gateway load so the optimizer has demand to publish for.
	feed := func() {
		m.ClusterController(topology.West).Ingest([]telemetry.WindowStats{{
			Key:      telemetry.MetricKey{Service: "gateway", Class: "default", Cluster: string(topology.West)},
			RPS:      5000,
			Requests: 5000,
			Window:   100 * time.Millisecond,
		}})
	}

	// First control round elects a leader (the first replica to step).
	feed()
	if err := m.TickControl(100 * time.Millisecond); err != nil {
		t.Fatalf("tick: %v", err)
	}
	leader := m.GlobalLeader()
	if leader == nil {
		t.Fatal("no leader after the first control round")
	}
	if leader != m.Globals()[0] {
		t.Fatal("replica 0 steps first and must win the first election")
	}
	v0 := m.ClusterController(topology.West).Table().Version
	if v0 == 0 {
		t.Fatal("leader never published a table")
	}

	// Kill the leader. Until the lease lapses no rival may take over;
	// after it lapses, the next replica in step order must.
	m.CrashGlobalReplica(0)
	feed()
	if err := m.TickControl(100 * time.Millisecond); err == nil {
		t.Log("tick with crashed leader reported no error (followers fine)")
	}
	if g := m.GlobalLeader(); g != nil {
		t.Fatal("a rival took over while the dead leader's lease was live")
	}
	time.Sleep(ttl + 100*time.Millisecond)
	feed()
	// Reports to the dead replica still fail (and say so); the surviving
	// replicas must elect and publish regardless.
	if err := m.TickControl(100 * time.Millisecond); err != nil {
		t.Logf("post-failover tick (dead-replica report errors expected): %v", err)
	}
	next := m.GlobalLeader()
	if next == nil {
		t.Fatal("no replica took over after the lease lapsed")
	}
	if next != m.Globals()[1] {
		t.Fatal("replica 1 steps first among survivors and must win")
	}
	if got := m.ClusterController(topology.West).Table().Version; got < v0 {
		t.Fatalf("failover regressed the table: %d -> %d", v0, got)
	}

	// The old leader restarts, rejoins as a follower, and the system
	// keeps exactly one leader.
	m.RestartGlobalReplica(0)
	feed()
	if err := m.TickControl(100 * time.Millisecond); err != nil {
		t.Fatalf("rejoin tick: %v", err)
	}
	leaders := 0
	for _, g := range m.Globals() {
		if g.IsLeader() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want exactly 1", leaders)
	}
	if m.Globals()[0].IsLeader() {
		t.Fatal("restarted replica displaced a live leader")
	}
}
