package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/dataplane"
	"github.com/servicelayernetworking/slate/internal/emul"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/topology"
)

const (
	// proxyRPS is the offered rate: well under the controller's modeled
	// capacity for the chain, and low enough that the ≤ nproc generator
	// connections are mostly idle, so generator queueing does not
	// amplify host noise.
	proxyRPS = 200
	// proxyTickPeriod is how often the control plane ticks under load,
	// so tables swap while requests are in flight.
	proxyTickPeriod = 500 * time.Millisecond
	// proxyWarmup is driven before timing starts (connections, pools).
	proxyWarmup = time.Second
	// nearZero scales service times and injected network delay down to
	// nothing: a request then costs HTTP plus SLATE-proxy handling.
	nearZero = 1e-9
)

// proxyMesh starts the Fig 6a chain as a live emulated mesh.
func proxyMesh(seed int64, top *topology.Topology, app *appgraph.App) (*emul.Mesh, error) {
	return emul.Start(emul.Options{
		Top:        top,
		App:        app,
		TimeScale:  nearZero,
		NetemScale: nearZero,
		Controller: core.ControllerConfig{Decompose: true},
		Seed:       seed,
	})
}

// loadStats is one open-loop phase's outcome.
type loadStats struct {
	latMS, lateMS []float64
	sent, ok      int
	badStatus     int
	badBody       int
	transportErrs int
	wall, cpu     time.Duration
	ticks         int
	tickErrs      int
	tickMS        []float64
}

// drive offers Poisson arrivals at rate rps for d to the west frontend
// from one process: a dispatcher releases each request at its due time
// and a fixed set of workers, one keep-alive connection each, sends
// them. Latency counts from the due time, so a stall is charged to the
// requests it delays. The control plane ticks every proxyTickPeriod
// meanwhile.
func drive(ctx context.Context, m *emul.Mesh, cl *appgraph.Class, rng *sim.RNG, rps float64, d time.Duration, tr *tracer) (loadStats, error) {
	var st loadStats
	fe, err := m.FrontendURL(topology.West)
	if err != nil {
		return st, err
	}
	url, wantBytes := fe+cl.Root.Path, cl.Root.Work.ResponseBytes
	body := make([]byte, cl.Root.Work.RequestBytes)
	var due []time.Duration
	for t := rng.Exp(1 / rps); t < d.Seconds(); t += rng.Exp(1 / rps) {
		due = append(due, time.Duration(t*float64(time.Second)))
	}

	type job struct {
		seq int
		at  time.Time
	}
	jobs := make(chan job, len(due)) // sized to every arrival: the dispatcher never blocks
	workers := runtime.NumCPU()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp}
			for j := range jobs {
				sp := tr.startAt(layerRequest, "frontend", 0, j.at)
				late := time.Since(j.at)
				status, n, err := send(ctx, client, cl.Root.Method, url, body, j.seq)
				lat := time.Since(j.at)
				sp.end()
				mu.Lock()
				st.sent++
				st.lateMS = append(st.lateMS, ms(late))
				switch {
				case err != nil:
					st.transportErrs++
				case status != http.StatusOK:
					st.badStatus++
				case n != wantBytes:
					st.badBody++
				default:
					st.ok++
					st.latMS = append(st.latMS, ms(lat))
				}
				mu.Unlock()
			}
		}()
	}

	stopTicks := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		t := time.NewTicker(proxyTickPeriod)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sp := tr.start(layerTick, "Mesh.TickControl", 0)
				t0 := time.Now()
				err := m.TickControl(proxyTickPeriod)
				dt := time.Since(t0)
				sp.end()
				mu.Lock()
				st.ticks++
				st.tickMS = append(st.tickMS, ms(dt))
				if err != nil {
					st.tickErrs++
					note("tick error: %v", err)
				}
				mu.Unlock()
			case <-stopTicks:
				return
			}
		}
	}()

	cpu0 := cpuTime()
	begin := time.Now()
	for i, off := range due {
		at := begin.Add(off)
		if w := time.Until(at); w > 0 {
			time.Sleep(w)
		}
		jobs <- job{seq: i, at: at}
	}
	close(jobs)
	wg.Wait()
	st.wall = time.Since(begin)
	st.cpu = cpuTime() - cpu0
	close(stopTicks)
	tickWG.Wait()
	return st, nil
}

// send sends one request and returns its status and body size.
func send(ctx context.Context, client *http.Client, method, url string, body []byte, seq int) (int, int64, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set(dataplane.HeaderClass, "default")
	req.Header.Set(dataplane.HeaderTraceID, strconv.FormatInt(int64(seq+1), 16))
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, n, err
}

func runProxyServe(e *env, r *result) error {
	const rps = proxyRPS
	ctx := context.Background()
	top := topology.TwoClusters(40 * time.Millisecond)
	app := chainApp(top.ClusterIDs()...)
	class := app.Classes[0]
	// Set-up: start the mesh and run its first (cold) control tick.
	setup, mesh, err := timeSetups(3, time.Second, func() (*emul.Mesh, func(), error) {
		m, err := proxyMesh(e.seed, top, app)
		if err != nil {
			return nil, nil, err
		}
		if err := m.TickControl(proxyTickPeriod); err != nil {
			m.Close()
			return nil, nil, fmt.Errorf("cold tick: %w", err)
		}
		return m, m.Close, nil
	})
	if err != nil {
		return err
	}
	defer mesh.Close()
	r.e2e["setup_s"] = setup

	root := sim.NewRNG(e.seed)
	if _, err := drive(ctx, mesh, class, root.DeriveNamed("warmup"), rps, proxyWarmup, nil); err != nil {
		return err
	}
	mesh.DrainSpans()

	var untraced loadStats
	var tr *tracer
	for _, phase := range e.phases() {
		var before promSnap
		var m0, m1 runtime.MemStats
		if phase.traced {
			tr = newTracer(e.seed)
			if before, err = takeSnap(); err != nil {
				return err
			}
			runtime.ReadMemStats(&m0)
		}
		name := "untraced"
		if phase.traced {
			name = "traced"
		}
		st, err := drive(ctx, mesh, class, root.DeriveNamed(name), rps, phase.d, tr)
		if err != nil {
			return err
		}
		mesh.DrainSpans() // the proxies' own span buffers; not this benchmark's spans
		r.attempted += int64(st.sent + st.ticks)
		r.failed += int64(st.transportErrs + st.badStatus + st.tickErrs)
		r.check(st.badBody == 0, "proxy-serve: %d of %d 200 responses lacked the chain's body size", st.badBody, st.sent)
		r.check(st.ok > 0, "proxy-serve: no request succeeded")
		note("%s phase: sent %d ok %d non-200 %d transport errors %d bad bodies %d ticks %d (errors %d) over %v",
			name, st.sent, st.ok, st.badStatus, st.transportErrs, st.badBody, st.ticks, st.tickErrs, st.wall)
		if !phase.traced {
			untraced = st
			continue
		}
		runtime.ReadMemStats(&m1)
		after, err := takeSnap()
		if err != nil {
			return err
		}
		reqs := float64(st.sent)
		routedRemote := func(l map[string]string) bool { return l["target"] != l["cluster"] }
		r.layer["dataplane.hops_per_req"] = delta(before, after, "slate_proxy_inbound_requests_total", nil) / reqs
		r.layer["dataplane.inbound_ms"] = 1000 * ratio(delta(before, after, "slate_proxy_inbound_seconds_sum", nil),
			delta(before, after, "slate_proxy_inbound_seconds_count", nil))
		r.layer["dataplane.remote_frac"] = ratio(delta(before, after, "slate_proxy_routed_requests_total", routedRemote),
			delta(before, after, "slate_proxy_routed_requests_total", nil))
		r.layer["dataplane.upstream_errors"] = delta(before, after, "slate_proxy_upstream_errors_total", nil)
		r.layer["dataplane.degraded_picks"] = delta(before, after, "slate_proxy_degraded_picks_total", nil)
		stale := 0
		for sid := range app.Services {
			for _, cl := range []topology.ClusterID{topology.West, topology.East} {
				if p := mesh.Proxy(sid, cl); p != nil && p.RulesStale() {
					stale++
				}
			}
		}
		r.layer["dataplane.stale_proxies"] = float64(stale)
		r.layer["loadgen.late_p99_ms"] = quantile(st.lateMS, 0.99)
		r.layer["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		r.layer["go.gc_pause_ms"] = ms(time.Duration(m1.PauseTotalNs - m0.PauseTotalNs))
		r.layer["controlplane.tick_ms"] = mean(st.tickMS)
		r.layer["controlplane.push_ms"] = 1000 * ratio(delta(before, after, "slate_global_push_seconds_sum", nil),
			delta(before, after, "slate_global_push_seconds_count", nil))
		r.layer["controlplane.patch_bytes_per_period"] = ratio(delta(before, after, "slate_global_patch_bytes_total", nil), float64(st.ticks))
		r.layer["controlplane.resyncs"] = delta(before, after, "slate_global_push_resyncs_total", nil)
		tr.report(r)
		r.layer["trace.overhead_pct"] = 100 * (quantile(st.latMS, 0.5)/quantile(untraced.latMS, 0.5) - 1)
	}
	if untraced.ok == 0 {
		return errors.New("no successful request in the untraced phase")
	}
	// Open loop: requests per wall-second equal the offered rate, so the
	// throughput that shows the path's cost is per CPU-second.
	r.e2e["throughput_per_s"] = float64(untraced.ok) / untraced.cpu.Seconds()
	r.e2e["latency_p50_ms"] = quantile(untraced.latMS, 0.5)
	note("offered %d req/s, served %.1f per wall-second, %.1f per CPU-second", int(rps),
		float64(untraced.ok)/untraced.wall.Seconds(), float64(untraced.ok)/untraced.cpu.Seconds())
	note("offered %d req/s; late p99 %.3f ms; latency p50 %.3f p75 %.3f p99 %.3f max %.3f ms over %d requests", int(rps),
		quantile(untraced.lateMS, 0.99), quantile(untraced.latMS, 0.5), quantile(untraced.latMS, 0.75),
		quantile(untraced.latMS, 0.99), quantile(untraced.latMS, 1), len(untraced.latMS))
	if e.trace {
		return e.writeSpans(tr)
	}
	return nil
}
