// Command perfbench is the repository benchmark. One invocation runs one
// named workload from a seed, measures it for a fixed wall time, checks
// that the program's outputs are correct, and prints the result as one
// JSON object on the last line of standard output:
//
//	go run . --workload fig6-serial --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones a user of SLATE
// sees; with --trace 1 the run is split into an untraced and a traced
// half, spans are recorded around every call into a layer (written as
// JSONL in the obs span format under --span-dir), and the metrics are
// the per-layer ones. README.md in this directory describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports. Every workload
// reports each of them; README.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run reports. A layer a
// workload bypasses reports 0.
var perLayer = []metricDef{
	{"simrun.ns_per_req", "ns"},
	{"simrun.allocs_per_req", "count"},
	{"simrun.bytes_per_req", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"sim.windows", "count"},
	{"sim.messages", "count"},
	{"sim.messages_per_req", "count"},
	{"sim.events_per_req", "count"},
	{"core.tick_p50_ms", "ms"},
	{"core.tick_p99_ms", "ms"},
	{"core.subsolves", "count"},
	{"core.skipped", "count"},
	{"core.skip_ratio", "ratio"},
	{"core.warm_solves", "count"},
	{"core.cold_solves", "count"},
	{"core.search_win_ratio", "ratio"},
	{"core.gap_abandoned", "count"},
	{"core.reverts", "count"},
	{"core.iter_limit_holds", "count"},
	{"traffic.skip_ratio", "ratio"},
	{"traffic.search_win_ratio", "ratio"},
	{"telemetry.keys_per_window", "count"},
	{"controlplane.report_ms", "ms"},
	{"controlplane.tick_ms", "ms"},
	{"controlplane.push_ms", "ms"},
	{"controlplane.patch_bytes_per_period", "B"},
	{"controlplane.resyncs", "count"},
	{"routing.rules", "count"},
	{"routing.rules_changed_per_period", "count"},
	{"dataplane.hops_per_req", "count"},
	{"dataplane.inbound_ms", "ms"},
	{"dataplane.remote_frac", "ratio"},
	{"dataplane.upstream_errors", "count"},
	{"dataplane.degraded_picks", "count"},
	{"dataplane.stale_proxies", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.self_simrun_ms", "ms"},
	{"trace.self_policy_ms", "ms"},
	{"trace.self_period_ms", "ms"},
	{"trace.self_report_ms", "ms"},
	{"trace.self_tick_ms", "ms"},
	{"trace.self_request_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// env is what every workload receives.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	spanDir string
	name    string
}

// result accumulates one run's outcome.
type result struct {
	attempted, failed int64
	failures          []string // failed correctness checks
	e2e               map[string]float64
	layer             map[string]float64
	unmeasured        map[string]string // per-layer metric -> why it reads 0 here
}

func newResult() *result {
	return &result{
		e2e:        map[string]float64{},
		layer:      map[string]float64{},
		unmeasured: map[string]string{},
	}
}

// check records a failed correctness check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// note prints an informational line, prefixed so it cannot be taken
// for the result, which is always the last line of standard output.
func note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// benchWorkload is one named benchmark input. run runs the set-up (the
// returned setup_s is a median over repetitions) and then the timed
// part, filling r.
type benchWorkload struct {
	name string
	run  func(e *env, r *result) error
}

var workloads = []benchWorkload{
	{"fig6-serial", runFig6Serial},
	{"gen16-sharded", runGen16Sharded},
	{"control-loop", runControlLoop},
	{"proxy-serve", runProxyServe},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Float64("seconds", 10, "wall time to measure for")
		trace   = flag.Int("trace", 0, "1 runs the traced half and reports per-layer metrics")
		spanDir = flag.String("span-dir", ".bench_build/spans", "directory traced runs write JSONL spans to")
	)
	flag.Parse()
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		spanDir: *spanDir,
		name:    w.name,
	}
	note("workload %s seed %d seconds %v trace %d", w.name, e.seed, e.seconds, *trace)
	note("host nproc %d GOMAXPROCS %d %s %s/%s cpu %q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())

	r := newResult()
	steal0, total0 := hostSteal()
	if err := w.run(e, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()
	if steal1, total1 := hostSteal(); total1 > total0 {
		note("host steal %.2f%% of CPU time during the run (time the hypervisor ran other guests)",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	if code := emit(e, r); code != 0 {
		os.Exit(code)
	}
}

// emit prints the metric notes and the final JSON line, returning the
// exit code: non-zero when any correctness check failed.
func emit(e *env, r *result) int {
	defs := endToEnd
	vals := r.e2e
	if e.trace {
		defs = perLayer
		vals = r.layer
		for _, d := range endToEnd {
			if v, ok := r.e2e[d.name]; ok {
				note("untraced %s %.6g %s", d.name, v, d.unit)
			}
		}
		keys := make([]string, 0, len(r.unmeasured))
		for k := range r.unmeasured {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			note("unmeasured %s: %s", k, r.unmeasured[k])
		}
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.failures = append(r.failures, fmt.Sprintf("metric %s is %v", d.name, v))
			v = 0
		}
		note("metric %-36s %14.6g %s", d.name, v, d.unit)
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	out.Correct = len(r.failures) == 0
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
		r.failures = append(r.failures, "no operation attempted")
	}
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
		note("check failed: %s", f)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal reads the steal and total jiffies from /proc/stat; zeros
// where unavailable.
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel reads the CPU model name for the host record.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// timeSetups repeats a workload's set-up at least minReps times and
// until minTotal has passed (capped at maxSetupReps), tears down every
// instance but the last, and returns the median set-up time with the
// last instance, which the timed part then uses.
func timeSetups[T any](minReps int, minTotal time.Duration, setup func() (T, func(), error)) (float64, T, error) {
	var (
		times []float64
		last  T
		stop  func()
	)
	begin := time.Now()
	for n := 0; n < minReps || (time.Since(begin) < minTotal && n < maxSetupReps); n++ {
		if stop != nil {
			stop()
			var zero T
			last = zero
		}
		// Start each set-up from a collected heap, so input generation
		// and torn-down instances neither inflate the peak RSS of the
		// timed part nor charge their collection to a set-up.
		runtime.GC()
		start := time.Now()
		v, closer, err := setup()
		if err != nil {
			return 0, last, err
		}
		times = append(times, time.Since(start).Seconds())
		last, stop = v, closer
	}
	return median(times), last, nil
}

// maxSetupReps caps set-up repetitions for workloads whose set-up is
// cheap.
const maxSetupReps = 200

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// phase is one timed part of a run.
type phase struct {
	d      time.Duration
	traced bool
}

// phases lists a run's timed parts: all of it untraced, or for a traced
// run an untraced half (the reference for tracing overhead) and then a
// traced half.
func (e *env) phases() []phase {
	if !e.trace {
		return []phase{{e.seconds, false}}
	}
	return []phase{{e.seconds / 2, false}, {e.seconds / 2, true}}
}

// writeSpans writes the traced half's spans in the obs JSONL format.
func (e *env) writeSpans(tr *tracer) error {
	if tr == nil {
		return nil
	}
	if err := os.MkdirAll(e.spanDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.spanDir, fmt.Sprintf("%s-seed%d.jsonl", e.name, e.seed))
	if err := tr.writeFile(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	note("spans %d written to %s", len(tr.spans), path)
	return nil
}
