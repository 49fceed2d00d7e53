package experiments

import (
	"fmt"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/fault"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// Chaos control-plane fault timeline (virtual seconds). The global
// outage overlaps a west-east partition: the regional incident the
// degradation ladder exists for. Proxies whose rules outlive the TTL
// must stop trusting them before the partition starts swallowing the
// cross-cluster calls those rules demand.
const (
	chaosPeriod     = 2 * time.Second
	chaosOutageAt   = 20 * time.Second
	chaosOutageDur  = 25 * time.Second // ticks 20..44 all missed
	chaosCutAt      = 26 * time.Second
	chaosCutDur     = 19 * time.Second // ends with the outage at t=45
	chaosFlapAt     = 60 * time.Second
	chaosFlaps      = 3
	chaosFlapDown   = 1 * time.Second
	chaosFlapUp     = 3 * time.Second
	chaosDuration   = 90 * time.Second
	chaosWarmup     = 5 * time.Second
	chaosRuleTTL    = 3 * chaosPeriod // hardened proxies degrade after 6s of silence
	chaosWestDemand = 700.0           // ~0.88 of west capacity: queueing makes SLATE offload
	chaosEastDemand = 100.0
)

// Chaos measures graceful degradation under control-plane failures: the
// same seeded scenario — west near local capacity so SLATE offloads
// cross-cluster, then a global-controller outage overlapping a
// west-east partition, then a flapping global controller — run twice
// under the SLATE policy. The hardened run gives proxies a rule-staleness TTL
// (degrade to local-biased routing once the control plane has been
// silent past it); the unhardened baseline holds stale rules forever
// and keeps routing into the cut link. Reported: availability, p50/p99
// latency, degraded/missed/failed counts, and per-window timelines.
func Chaos(opt Options) (*Figure, error) {
	opt = opt.defaults()
	top := topology.TwoClusters(40 * time.Millisecond)
	app := chainApp(topology.West, topology.East)
	demand := core.Demand{"default": {
		topology.West: chaosWestDemand,
		topology.East: chaosEastDemand,
	}}

	sched := fault.NewSchedule()
	sched.Outage(fault.Global, chaosOutageAt, chaosOutageDur)
	sched.Partition(topology.West, topology.East, chaosCutAt, chaosCutDur)
	// Short flaps separated by quiet periods: every other control tick
	// still lands, so rules never exceed the TTL — the "stale-but-held"
	// rung absorbs a crash-looping controller without degrading.
	sched.Flap(fault.Global, chaosFlapAt, chaosFlaps, chaosFlapDown, chaosFlapUp)

	scn := simrun.Scenario{
		Name:          "chaos",
		Top:           top,
		App:           app,
		Workload:      steady("default", demand["default"]),
		Duration:      chaosDuration,
		Warmup:        chaosWarmup,
		ControlPeriod: chaosPeriod,
		Seed:          opt.Seed,
		Faults:        sched,
	}

	fig := &Figure{
		ID:    "chaos",
		Title: "Graceful degradation under control-plane faults (hardened TTL vs stale-forever)",
		Notes: []string{
			fmt.Sprintf("global outage t=%v..%v overlapping west-east partition t=%v..%v; %d controller flaps from t=%v",
				chaosOutageAt, chaosOutageAt+chaosOutageDur, chaosCutAt, chaosCutAt+chaosCutDur, chaosFlaps, chaosFlapAt),
			fmt.Sprintf("hardened rule TTL %v (= 3 control periods); unhardened holds stale rules forever", chaosRuleTTL),
			fmt.Sprintf("west %v RPS (~0.88 of local capacity: queueing makes SLATE offload), east %v RPS, seed %d", chaosWestDemand, chaosEastDemand, opt.Seed),
			"x = time (s); y = per-window mean latency (ms) / completed RPS",
		},
		Summary: map[string]float64{},
	}

	run := func(name string, ttl time.Duration) (*simrun.Result, error) {
		s := scn
		s.RuleTTL = ttl
		if name == "hardened" {
			// Only the hardened leg exports spans: both legs share the
			// deterministic per-run trace-ID sequence, so exporting both
			// into one sink would collide trace IDs across legs.
			s.SpanSink = opt.SpanSink
		}
		ctrl, err := core.NewController(top, app, core.ControllerConfig{})
		if err != nil {
			return nil, err
		}
		ctrl.SetDemand(demand)
		res, err := simrun.Run(s, simrun.SLATE(ctrl, true))
		if err != nil {
			return nil, fmt.Errorf("chaos %s: %w", name, err)
		}
		lat := Series{Name: name + "-latency", XLabel: "time (s)", YLabel: "mean latency (ms)"}
		rps := Series{Name: name + "-rps", XLabel: "time (s)", YLabel: "completed RPS"}
		for _, p := range res.Timeline {
			lat.X = append(lat.X, p.At.Seconds())
			lat.Y = append(lat.Y, float64(p.Mean)/1e6)
			rps.X = append(rps.X, p.At.Seconds())
			rps.Y = append(rps.Y, p.RPS)
		}
		fig.Series = append(fig.Series, lat, rps)
		fig.Summary[name+"_availability"] = res.Availability
		fig.Summary[name+"_p50_ms"] = float64(res.P50) / 1e6
		fig.Summary[name+"_p99_ms"] = float64(res.P99) / 1e6
		fig.Summary[name+"_failed"] = float64(res.Failed)
		fig.Summary[name+"_degraded_calls"] = float64(res.DegradedCalls)
		fig.Summary[name+"_missed_ticks"] = float64(res.MissedTicks)
		return res, nil
	}

	// The two runs stay serial on purpose: both controllers fold
	// telemetry into the same shared demand map (ControlPeriod > 0), so
	// the second run's starting estimate depends on the first having
	// finished — reordering would change the published metrics.
	hard, err := run("hardened", chaosRuleTTL)
	if err != nil {
		return nil, err
	}
	unhard, err := run("unhardened", 0)
	if err != nil {
		return nil, err
	}

	fig.Summary["availability_gain"] = hard.Availability - unhard.Availability
	// Recovery: the first post-incident control window whose mean
	// latency is back within 1.5x the pre-fault steady state.
	fig.Summary["hardened_recovery_s"] = recoveryTime(hard, chaosOutageAt+chaosOutageDur)
	return fig, nil
}

// recoveryTime returns the time (seconds since scenario start) of the
// first control window at or after `after` whose mean latency is within
// 1.5x the pre-fault baseline (mean over the windows before the first
// fault), or -1 if the run never recovers.
func recoveryTime(res *simrun.Result, after time.Duration) float64 {
	var base float64
	var n int
	for _, p := range res.Timeline {
		if p.At <= chaosOutageAt {
			base += float64(p.Mean)
			n++
		}
	}
	if n == 0 {
		return -1
	}
	base /= float64(n)
	for _, p := range res.Timeline {
		if p.At >= after && float64(p.Mean) <= 1.5*base {
			return p.At.Seconds()
		}
	}
	return -1
}
