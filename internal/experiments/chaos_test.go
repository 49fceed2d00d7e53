package experiments

import (
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/almost"
)

func TestChaosHardeningWins(t *testing.T) {
	fig, err := Chaos(fast())
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Summary

	// The hardened dataplane must keep serving through the whole
	// incident: zero failed requests, full availability.
	if !almost.Equal(s["hardened_failed"], 0) {
		t.Errorf("hardened run failed %v requests", s["hardened_failed"])
	}
	if s["hardened_availability"] < 0.999 {
		t.Errorf("hardened availability = %v, want ~1", s["hardened_availability"])
	}
	// The stale-forever baseline keeps routing into the cut link.
	if almost.Equal(s["unhardened_failed"], 0) {
		t.Error("unhardened baseline shows no failures")
	}
	if s["availability_gain"] <= 0 {
		t.Errorf("availability gain = %v, want > 0", s["availability_gain"])
	}
	// Both runs see the same control-plane outage.
	if !almost.Equal(s["hardened_missed_ticks"], s["unhardened_missed_ticks"]) ||
		almost.Equal(s["hardened_missed_ticks"], 0) {
		t.Errorf("missed ticks: hardened %v, unhardened %v",
			s["hardened_missed_ticks"], s["unhardened_missed_ticks"])
	}
	// Only the hardened run degrades to local routing.
	if almost.Equal(s["hardened_degraded_calls"], 0) || !almost.Equal(s["unhardened_degraded_calls"], 0) {
		t.Errorf("degraded calls: hardened %v, unhardened %v",
			s["hardened_degraded_calls"], s["unhardened_degraded_calls"])
	}

	// Bounded latency inflation while degraded: p99 within 3x the
	// unhardened run's (which sheds its failing cross-cluster load).
	if s["hardened_p99_ms"] > 3*s["unhardened_p99_ms"] {
		t.Errorf("hardened p99 %vms vs unhardened %vms: inflation not bounded",
			s["hardened_p99_ms"], s["unhardened_p99_ms"])
	}

	// Recovery within one sync period of the controller restart.
	restart := (chaosOutageAt + chaosOutageDur).Seconds()
	rec := s["hardened_recovery_s"]
	if rec < 0 || rec > restart+chaosPeriod.Seconds() {
		t.Errorf("recovery at t=%vs, want within one period (%v) of restart at t=%vs",
			rec, chaosPeriod, restart)
	}
}

func TestChaosDeterministicForFixedSeed(t *testing.T) {
	opt := Options{Duration: 30 * time.Second, Warmup: 5 * time.Second, Seed: 7}
	a, err := Chaos(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chaos(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Summary) != len(b.Summary) {
		t.Fatalf("summary sizes differ: %d vs %d", len(a.Summary), len(b.Summary))
	}
	for k, av := range a.Summary {
		if bv, ok := b.Summary[k]; !ok || av != bv { //slate:nolint floatcmp -- bit-exact reproducibility is the property under test
			t.Errorf("summary %q: %v vs %v", k, av, bv)
		}
	}
	for i, sa := range a.Series {
		sb := b.Series[i]
		if len(sa.Y) != len(sb.Y) {
			t.Fatalf("series %q lengths differ", sa.Name)
		}
		for j := range sa.Y {
			if sa.Y[j] != sb.Y[j] { //slate:nolint floatcmp -- bit-exact reproducibility is the property under test
				t.Fatalf("series %q diverges at point %d: %v vs %v", sa.Name, j, sa.Y[j], sb.Y[j])
			}
		}
	}
}
