package scenario

import (
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/almost"
	"github.com/servicelayernetworking/slate/internal/topology"
)

func TestStressScenariosValidate(t *testing.T) {
	for _, scn := range StressScenarios(42, 0.25) {
		if err := scn.Validate(); err != nil {
			t.Errorf("%s: %v", scn.Name, err)
		}
		if scn.ControlPeriod != StressControlPeriod {
			t.Errorf("%s: control period %v, want %v", scn.Name, scn.ControlPeriod, StressControlPeriod)
		}
	}
}

func TestFlashCrowdShape(t *testing.T) {
	scn := FlashCrowd(42)
	var west int
	for _, spec := range scn.Workload {
		if spec.Cluster != topology.West {
			continue
		}
		west++
		if got := spec.RateAt(10 * time.Second); !almost.Equal(got, 700) {
			t.Errorf("base rate %v, want 700", got)
		}
		if got := spec.RateAt(23 * time.Second); !almost.Equal(got, 950) {
			t.Errorf("spike rate %v, want 950", got)
		}
		if got := spec.RateAt(30 * time.Second); !almost.Equal(got, 700) {
			t.Errorf("recovered rate %v, want 700", got)
		}
		// The spike edge lands exactly on a control boundary.
		if rem := (20 * time.Second) % StressControlPeriod; rem != 0 {
			t.Errorf("spike start misaligned with control period by %v", rem)
		}
	}
	if west != 1 {
		t.Fatalf("flash crowd has %d west streams, want 1", west)
	}
}

func TestAdversarialWalkDeterministicAndBoxed(t *testing.T) {
	const margin = 0.25
	a := AdversarialWalk(7, margin)
	b := AdversarialWalk(7, margin)
	var aw, bw []float64
	for t := time.Duration(0); t < a.Duration; t += StressControlPeriod {
		aw = append(aw, a.Workload[0].RateAt(t))
		bw = append(bw, b.Workload[0].RateAt(t))
	}
	amp := WalkAmplitude(margin)
	lo, hi := 680*(1-amp), 680*(1+amp)
	var flips int
	for i := range aw {
		if aw[i] != bw[i] { //slate:nolint floatcmp -- same seed must reproduce bit-identical phases
			t.Fatalf("step %d: %v vs %v for the same seed", i, aw[i], bw[i])
		}
		if !almost.Equal(aw[i], lo) && !almost.Equal(aw[i], hi) {
			t.Errorf("step %d: rate %v is not a box corner (%v or %v)", i, aw[i], lo, hi)
		}
		if i > 0 && aw[i] != aw[i-1] { //slate:nolint floatcmp -- corner values are assigned, not computed
			flips++
		}
	}
	if flips < 5 {
		t.Errorf("walk flipped only %d times over %d steps; not adversarial", flips, len(aw))
	}
	// Different seeds produce different walks.
	c := AdversarialWalk(8, margin)
	same := true
	for t := time.Duration(0); t < a.Duration; t += StressControlPeriod {
		if a.Workload[0].RateAt(t) != c.Workload[0].RateAt(t) { //slate:nolint floatcmp -- corner values compare exactly
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical walks")
	}
}

func TestDiurnalSwingConservesTotal(t *testing.T) {
	scn := DiurnalSwing(42)
	if len(scn.Workload) != 2 {
		t.Fatalf("diurnal has %d streams, want 2", len(scn.Workload))
	}
	var peak float64
	for ts := time.Duration(0); ts < scn.Duration; ts += StressControlPeriod {
		w := scn.Workload[0].RateAt(ts)
		e := scn.Workload[1].RateAt(ts)
		if !almost.Equal(w+e, 1000) {
			t.Fatalf("t=%v: total %v, want 1000 (antiphase)", ts, w+e)
		}
		if w > peak {
			peak = w
		}
	}
	if peak < 750 {
		t.Errorf("west peak %v; swing amplitude looks wrong", peak)
	}
	// The season length divides the cycle exactly: 24s / 2s = 12 steps.
	if got := (24 * time.Second) / StressControlPeriod; got != 12 {
		t.Errorf("season steps = %d, want 12", got)
	}
}

func TestCorrelatedSurgePairs(t *testing.T) {
	scn := CorrelatedSurge(42)
	surging := map[topology.ClusterID]bool{}
	for _, spec := range scn.Workload {
		base := spec.RateAt(10 * time.Second)
		mid := spec.RateAt(23 * time.Second)
		if mid > base*1.4 {
			surging[spec.Cluster] = true
		}
	}
	if !surging[topology.OR] || !surging[topology.IOW] || len(surging) != 2 {
		t.Errorf("surging clusters = %v, want exactly {or, iow}", surging)
	}
}
