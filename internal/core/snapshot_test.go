package core

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// snapshotTestPair builds a warm controller A (four ticks of drifting
// demand) and a cold controller B restored from A's snapshot after a
// JSON round trip — the exact path a follower replica takes over the
// control plane's GET /v1/snapshot.
func snapshotTestPair(t *testing.T, cfg ControllerConfig) (a, b *Controller, app *appgraph.App) {
	t.Helper()
	top := topology.TwoClusters(40 * time.Millisecond)
	app = starTestApp(3, appgraph.ReplicaPool{Replicas: 2, Concurrency: 64},
		appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}, topology.West, topology.East)

	a, err := NewController(top, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, scale := range []float64{1, 1.2, 0.9, 1} {
		if _, err := a.Tick(starStats(app, scale), time.Second); err != nil {
			t.Fatalf("warming tick %d: %v", i, err)
		}
	}

	body, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var snap ControllerSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	b, err = NewController(top, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(&snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return a, b, app
}

// starStats builds one telemetry window for the star app: per-class
// frontend arrivals, asymmetric so the shards genuinely differ.
func starStats(app *appgraph.App, scale float64) []telemetry.WindowStats {
	var out []telemetry.WindowStats
	for i, cl := range app.Classes {
		west := (500 + 120*float64(i)) * scale
		east := (80 + 15*float64(i)) * scale
		out = append(out, frontendStats(app, cl.Name, west, east, 30*time.Millisecond)...)
	}
	return out
}

// requireSameTable asserts two tables are bit-identical (same rules,
// same weights to the last ulp), via the canonical JSON encoding.
func requireSameTable(t *testing.T, ctx string, want, got interface{ MarshalJSON() ([]byte, error) }) {
	t.Helper()
	wb, err := want.MarshalJSON()
	if err != nil {
		t.Fatalf("%s: marshal want: %v", ctx, err)
	}
	gb, err := got.MarshalJSON()
	if err != nil {
		t.Fatalf("%s: marshal got: %v", ctx, err)
	}
	if string(wb) != string(gb) {
		t.Fatalf("%s: tables differ\noriginal: %s\nrestored: %s", ctx, wb, gb)
	}
}

// TestSnapshotRestoreBitIdentical is the failover contract: a restored
// controller publishes bit-identical tables and serves its first
// post-restore tick warm (no cold solves), across the plain
// decomposed, robust, search-race, and predictive configurations.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	configs := map[string]ControllerConfig{
		"decomposed": {DemandSmoothing: 1},
		"robust":     {DemandSmoothing: 1, Robust: true, DemandMargin: 0.25, Budget: 1},
		"search":     {DemandSmoothing: 1, Search: true},
		"predictive": {DemandSmoothing: 1, Predictive: true},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			a, b, app := snapshotTestPair(t, cfg)
			requireSameTable(t, "restored state", a.Table(), b.Table())
			if a.Version() != b.Version() {
				t.Fatalf("version: original %d, restored %d", a.Version(), b.Version())
			}

			// First post-restore tick repeats the last window: every shard's
			// fingerprint is clean, so the planner skips solves outright:
			// zero cold solves.
			ta, err := a.Tick(starStats(app, 1), time.Second)
			if err != nil {
				t.Fatalf("original tick: %v", err)
			}
			tb, err := b.Tick(starStats(app, 1), time.Second)
			if err != nil {
				t.Fatalf("restored tick: %v", err)
			}
			requireSameTable(t, "first post-restore tick", ta, tb)
			st := b.OptimizerStats()
			if st.ColdSolves != 0 {
				t.Fatalf("first post-restore tick ran %d cold solves, want 0 (stats %+v)", st.ColdSolves, st)
			}
			if st.SkippedSolves == 0 {
				t.Fatalf("clean-input tick skipped no shards (stats %+v)", st)
			}

			// Second post-restore tick drifts demand by 2% — the
			// steady-state regime warm starts are built for (larger jumps
			// push the old basis primal-infeasible, the solver's designed
			// cold-fallback path, original and restored alike). Dirty
			// shards must re-solve warm from the restored bases — still
			// zero cold solves, still bit-identical.
			ta, err = a.Tick(starStats(app, 1.02), time.Second)
			if err != nil {
				t.Fatalf("original dirty tick: %v", err)
			}
			tb, err = b.Tick(starStats(app, 1.02), time.Second)
			if err != nil {
				t.Fatalf("restored dirty tick: %v", err)
			}
			requireSameTable(t, "dirty post-restore tick", ta, tb)
			st = b.OptimizerStats()
			if st.ColdSolves != 0 {
				t.Fatalf("dirty post-restore tick ran %d cold solves, want 0 (stats %+v)", st.ColdSolves, st)
			}
			if cfg.Search && st.SearchSolves+st.SimplexWins == 0 {
				t.Fatalf("search race did not arm from the restored incumbent (stats %+v)", st)
			}
			if st.SubSolves == 0 {
				t.Fatalf("dirty tick solved no shards (stats %+v)", st)
			}
		})
	}
}

// TestSnapshotRestoreShapeMismatch pins that a snapshot whose shard
// count differs from the controller's partition is rejected whole, not
// half-applied — including a one-shard snapshot in the format the
// monolithic planner used to write — while that legacy format still
// warm-starts a one-shard controller, whose LP it was solved on.
func TestSnapshotRestoreShapeMismatch(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	star := func(classes int) *appgraph.App {
		return starTestApp(classes, appgraph.ReplicaPool{Replicas: 2, Concurrency: 64},
			appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}, topology.West, topology.East)
	}
	newCtrl := func(app *appgraph.App) *Controller {
		c, err := NewController(top, app, ControllerConfig{DemandSmoothing: 1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	two := newCtrl(star(2))
	three := newCtrl(star(3))
	if err := two.Restore(three.Snapshot()); err == nil {
		t.Fatal("restoring a 3-shard snapshot into a 2-shard controller did not fail")
	}

	// The monolithic planner's snapshot: one shard carrying only the
	// whole-app basis, tagged "sharded": false.
	oneApp := star(1)
	mono := NewOptimizer(top, oneApp, Config{})
	if _, err := mono.Optimize(starDemand(oneApp, 500, 80), DefaultProfiles(oneApp, top, Demand{}), 1); err != nil {
		t.Fatal(err)
	}
	basis, err := json.Marshal(mono.basis)
	if err != nil {
		t.Fatal(err)
	}
	legacy := []byte(`{"format":1,"version":1,"optimizer":{"sharded":false,"shards":[{"basis":` + string(basis) + `}]}}`)
	restore := func(c *Controller) error {
		var snap ControllerSnapshot
		if err := json.Unmarshal(legacy, &snap); err != nil {
			t.Fatal(err)
		}
		return c.Restore(&snap)
	}
	if err := restore(two); err == nil {
		t.Fatal("restoring a one-shard monolithic snapshot into a 2-shard controller did not fail")
	}
	one := newCtrl(oneApp)
	if err := restore(one); err != nil {
		t.Fatalf("restoring a one-shard monolithic snapshot into a one-shard controller: %v", err)
	}
	if _, err := one.Tick(starStats(oneApp, 1.02), time.Second); err != nil {
		t.Fatal(err)
	}
	if st := one.OptimizerStats(); st.WarmSolves != 1 || st.ColdSolves != 0 {
		t.Fatalf("legacy basis did not warm-start the one-shard controller (stats %+v)", st)
	}

	bad := two.Snapshot()
	bad.Format = SnapshotFormat + 1
	if err := two.Restore(bad); err == nil {
		t.Fatal("restoring an unknown snapshot format did not fail")
	}
}

// TestSnapshotEncodingDeterministic pins that snapshotting the same
// state twice yields identical bytes (the control plane compares and
// caches encoded snapshots).
func TestSnapshotEncodingDeterministic(t *testing.T) {
	a, _, _ := snapshotTestPair(t, ControllerConfig{DemandSmoothing: 1, Predictive: true})
	b1, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("snapshot encoding is not deterministic")
	}
}
