package topology

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/servicelayernetworking/slate/internal/almost"
)

func TestBuilderValidation(t *testing.T) {
	tests := []struct {
		name    string
		build   func() (*Topology, error)
		wantErr string
	}{
		{
			name:    "empty",
			build:   func() (*Topology, error) { return NewBuilder(0).Build() },
			wantErr: "no clusters",
		},
		{
			name: "duplicate cluster",
			build: func() (*Topology, error) {
				return NewBuilder(0).AddCluster("a", "r").AddCluster("a", "r").Build()
			},
			wantErr: "duplicate",
		},
		{
			name: "missing rtt",
			build: func() (*Topology, error) {
				return NewBuilder(0).AddCluster("a", "r").AddCluster("b", "r").Build()
			},
			wantErr: "missing RTT",
		},
		{
			name: "negative rtt",
			build: func() (*Topology, error) {
				return NewBuilder(0).AddCluster("a", "r").AddCluster("b", "r").
					SetRTT("a", "b", -time.Second).Build()
			},
			wantErr: "negative RTT",
		},
		{
			name: "negative egress",
			build: func() (*Topology, error) {
				return NewBuilder(0).AddCluster("a", "r").AddCluster("b", "r").
					SetRTT("a", "b", time.Millisecond).
					SetEgressCost("a", "b", -1).Build()
			},
			wantErr: "negative egress",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.build()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestRTTSymmetricZeroDiagonal(t *testing.T) {
	top := GCPTopology()
	for _, a := range top.ClusterIDs() {
		if top.RTT(a, a) != 0 {
			t.Errorf("RTT(%s,%s) = %v, want 0", a, a, top.RTT(a, a))
		}
		for _, b := range top.ClusterIDs() {
			if top.RTT(a, b) != top.RTT(b, a) {
				t.Errorf("RTT not symmetric for %s,%s", a, b)
			}
		}
	}
}

func TestGCPTopologyMatchesPaper(t *testing.T) {
	top := GCPTopology()
	want := []struct {
		a, b ClusterID
		rtt  time.Duration
	}{
		{OR, UT, 30 * time.Millisecond},
		{UT, IOW, 20 * time.Millisecond},
		{IOW, SC, 35 * time.Millisecond},
		{OR, SC, 66 * time.Millisecond},
		{OR, IOW, 37 * time.Millisecond},
	}
	for _, w := range want {
		if got := top.RTT(w.a, w.b); got != w.rtt {
			t.Errorf("RTT(%s,%s) = %v, want %v (paper §4.2)", w.a, w.b, got, w.rtt)
		}
	}
	if top.NumClusters() != 4 {
		t.Errorf("NumClusters = %d, want 4", top.NumClusters())
	}
}

func TestOneWayIsHalfRTT(t *testing.T) {
	top := GCPTopology()
	if got := top.OneWay(OR, UT); got != 15*time.Millisecond {
		t.Errorf("OneWay(OR,UT) = %v, want 15ms", got)
	}
}

func TestNearestOrdering(t *testing.T) {
	top := GCPTopology()
	got := top.Nearest(OR)
	want := []ClusterID{UT, IOW, SC} // 30 < 37 < 66
	if len(got) != len(want) {
		t.Fatalf("Nearest(OR) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nearest(OR) = %v, want %v", got, want)
		}
	}
	// From UT: OR 30, IOW 20, SC 52 -> IOW, OR, SC.
	got = top.Nearest(UT)
	want = []ClusterID{IOW, OR, SC}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nearest(UT) = %v, want %v", got, want)
		}
	}
}

func TestNearestTieBreaksByID(t *testing.T) {
	top := NewBuilder(0).
		AddCluster("a", "r").AddCluster("b", "r").AddCluster("c", "r").
		SetRTT("a", "b", 10*time.Millisecond).
		SetRTT("a", "c", 10*time.Millisecond).
		SetRTT("b", "c", 10*time.Millisecond).
		MustBuild()
	got := top.Nearest("a")
	if got[0] != "b" || got[1] != "c" {
		t.Errorf("Nearest tie-break = %v, want [b c]", got)
	}
}

func TestEgressCost(t *testing.T) {
	top := TwoClusters(40 * time.Millisecond)
	if c := top.EgressCostPerGB(West, West); !almost.Equal(c, 0) {
		t.Errorf("intra-cluster egress = %v, want 0", c)
	}
	if c := top.EgressCostPerGB(West, East); !almost.Equal(c, DefaultEgressPerGB) {
		t.Errorf("egress = %v, want %v", c, DefaultEgressPerGB)
	}
	// 1 GiB across costs exactly the per-GB price.
	if c := top.EgressCost(West, East, 1<<30); !almost.Equal(c, DefaultEgressPerGB) {
		t.Errorf("EgressCost(1GiB) = %v, want %v", c, DefaultEgressPerGB)
	}
	if c := top.EgressCost(West, East, 0); !almost.Equal(c, 0) {
		t.Errorf("EgressCost(0) = %v, want 0", c)
	}
}

func TestEgressCostOverride(t *testing.T) {
	top := NewBuilder(0.01).
		AddCluster("a", "r").AddCluster("b", "r").
		SetRTT("a", "b", time.Millisecond).
		SetEgressCost("a", "b", 0.08).
		MustBuild()
	if c := top.EgressCostPerGB("a", "b"); !almost.Equal(c, 0.08) {
		t.Errorf("egress override = %v, want 0.08", c)
	}
}

func TestUnknownClusterPanics(t *testing.T) {
	top := TwoClusters(time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Error("RTT with unknown cluster did not panic")
		}
	}()
	top.RTT("nope", West)
}

func TestHas(t *testing.T) {
	top := TwoClusters(time.Millisecond)
	if !top.Has(West) || !top.Has(East) {
		t.Error("Has returned false for existing clusters")
	}
	if top.Has("nope") {
		t.Error("Has returned true for unknown cluster")
	}
}

func TestNearestPermutationProperty(t *testing.T) {
	// Property: Nearest returns each other cluster exactly once, in
	// nondecreasing RTT order.
	top := GCPTopology()
	f := func(pick uint8) bool {
		ids := top.ClusterIDs()
		from := ids[int(pick)%len(ids)]
		near := top.Nearest(from)
		if len(near) != len(ids)-1 {
			return false
		}
		seen := map[ClusterID]bool{from: true}
		var prev time.Duration = -1
		for _, id := range near {
			if seen[id] {
				return false
			}
			seen[id] = true
			rtt := top.RTT(from, id)
			if rtt < prev {
				return false
			}
			prev = rtt
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
