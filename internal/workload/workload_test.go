package workload

import (
	"math"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/almost"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/topology"
)

func TestSpecValidate(t *testing.T) {
	good := Steady("c", topology.West, 100)
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Cluster: topology.West, Phases: []Phase{{RPS: 1}}},
		{Class: "c", Phases: []Phase{{RPS: 1}}},
		{Class: "c", Cluster: topology.West},
		{Class: "c", Cluster: topology.West, Phases: []Phase{{RPS: -1}}},
		{Class: "c", Cluster: topology.West, Phases: []Phase{{RPS: 1, Duration: -time.Second}}},
		{Class: "c", Cluster: topology.West, Phases: []Phase{{RPS: 1, Duration: 0}, {RPS: 2}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestRateAt(t *testing.T) {
	s := Burst("c", topology.West, 100, 500, 10*time.Second, 5*time.Second)
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{0, 100},
		{9 * time.Second, 100},
		{10 * time.Second, 500},
		{14 * time.Second, 500},
		{15 * time.Second, 100},
		{time.Hour, 100}, // open-ended tail
	}
	for _, tc := range cases {
		if got := s.RateAt(tc.t); !almost.Equal(got, tc.want) {
			t.Errorf("RateAt(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestRateAtEndedSchedule(t *testing.T) {
	s := Spec{Class: "c", Cluster: topology.West, Phases: []Phase{
		{RPS: 100, Duration: 10 * time.Second},
		{RPS: 50, Duration: 10 * time.Second},
	}}
	if got := s.RateAt(25 * time.Second); !almost.Equal(got, 0) {
		t.Errorf("ended schedule rate = %v, want 0", got)
	}
}

func TestArrivalsPoissonRate(t *testing.T) {
	rng := sim.NewRNG(42)
	arr := Arrivals(Steady("c", topology.West, 200), 60*time.Second, rng)
	got := float64(len(arr)) / 60
	if math.Abs(got-200) > 10 {
		t.Errorf("empirical rate = %v, want ~200", got)
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			t.Fatal("arrivals not sorted")
		}
	}
}

func TestArrivalsConstantExact(t *testing.T) {
	s := Spec{Class: "c", Cluster: topology.West, Process: Constant, Phases: []Phase{{RPS: 10}}}
	arr := Arrivals(s, 10*time.Second, sim.NewRNG(1))
	if len(arr) != 99 { // arrivals at 100ms..9.9s (t=10s excluded)
		t.Errorf("constant arrivals = %d, want 99", len(arr))
	}
	if arr[0] != 100*time.Millisecond {
		t.Errorf("first arrival = %v, want 100ms", arr[0])
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	a := Arrivals(Steady("c", topology.West, 100), 10*time.Second, sim.NewRNG(7))
	b := Arrivals(Steady("c", topology.West, 100), 10*time.Second, sim.NewRNG(7))
	if len(a) != len(b) {
		t.Fatal("same seed produced different counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different arrivals")
		}
	}
}

func TestArrivalsZeroRatePhaseSkips(t *testing.T) {
	s := Spec{Class: "c", Cluster: topology.West, Process: Constant, Phases: []Phase{
		{RPS: 0, Duration: 5 * time.Second},
		{RPS: 10},
	}}
	arr := Arrivals(s, 10*time.Second, sim.NewRNG(1))
	if len(arr) == 0 {
		t.Fatal("no arrivals after zero-rate phase")
	}
	if arr[0] < 5*time.Second {
		t.Errorf("first arrival %v during zero-rate phase", arr[0])
	}
}

func TestArrivalsZeroRateForever(t *testing.T) {
	s := Spec{Class: "c", Cluster: topology.West, Phases: []Phase{{RPS: 0}}}
	if arr := Arrivals(s, 10*time.Second, sim.NewRNG(1)); len(arr) != 0 {
		t.Errorf("zero-rate spec produced %d arrivals", len(arr))
	}
}

func TestArrivalsBurstDensity(t *testing.T) {
	s := Burst("c", topology.West, 100, 1000, 10*time.Second, 5*time.Second)
	arr := Arrivals(s, 20*time.Second, sim.NewRNG(3))
	var base, burst int
	for _, a := range arr {
		if a >= 10*time.Second && a < 15*time.Second {
			burst++
		} else {
			base++
		}
	}
	baseRate := float64(base) / 15
	burstRate := float64(burst) / 5
	if math.Abs(baseRate-100) > 20 {
		t.Errorf("base rate = %v, want ~100", baseRate)
	}
	if math.Abs(burstRate-1000) > 100 {
		t.Errorf("burst rate = %v, want ~1000", burstRate)
	}
}

func TestMeanRatePiecewise(t *testing.T) {
	s := Burst("c", topology.West, 100, 1000, 10*time.Second, 5*time.Second)
	cases := []struct {
		from, to time.Duration
		want     float64
	}{
		{0, 10 * time.Second, 100},                                  // entirely base
		{10 * time.Second, 15 * time.Second, 1000},                  // entirely burst
		{8 * time.Second, 12 * time.Second, (2*100 + 2*1000) / 4.0}, // straddles the edge
		{14 * time.Second, 20 * time.Second, (1*1000 + 5*100) / 6.0},
		{30 * time.Second, 40 * time.Second, 100}, // open-ended tail
	}
	for _, c := range cases {
		if got := s.MeanRate(c.from, c.to); !almost.Equal(got, c.want) {
			t.Errorf("MeanRate(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	// Degenerate window falls back to the instantaneous rate.
	if got := s.MeanRate(12*time.Second, 12*time.Second); !almost.Equal(got, 1000) {
		t.Errorf("zero-width MeanRate = %v, want 1000", got)
	}
}

func TestMeanRateEndedStream(t *testing.T) {
	s := Spec{Class: "c", Cluster: topology.West, Phases: []Phase{{RPS: 200, Duration: 10 * time.Second}}}
	if got := s.MeanRate(5*time.Second, 15*time.Second); !almost.Equal(got, 100) {
		t.Errorf("ended-stream MeanRate = %v, want 100", got)
	}
	if got := s.MeanRate(20*time.Second, 30*time.Second); got != 0 { //slate:nolint floatcmp -- exact zero for a dead stream
		t.Errorf("dead-stream MeanRate = %v, want 0", got)
	}
}
