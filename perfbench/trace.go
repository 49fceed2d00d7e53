package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/telemetry"
)

// Layer names carried in a span's Service field. Self time is reported
// per layer as trace.self_<layer>_ms.
const (
	layerSimrun  = "simrun"  // one simrun.Run / RunParallel call
	layerPolicy  = "policy"  // one simrun.Policy Init or Tick call
	layerPeriod  = "period"  // one control period, flush to enforced
	layerReport  = "report"  // one controlplane.Cluster.Report call
	layerTick    = "tick"    // one controlplane.Global.Tick or emul.Mesh.TickControl call
	layerRequest = "request" // one HTTP request into a dataplane proxy
)

var traceLayers = []string{layerSimrun, layerPolicy, layerPeriod, layerReport, layerTick, layerRequest}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths pay one nil check.
type tracer struct {
	epoch time.Time
	trace telemetry.TraceID

	mu    sync.Mutex
	next  telemetry.SpanID
	spans []telemetry.Span
}

func newTracer(seed int64) *tracer {
	return &tracer{epoch: time.Now(), trace: telemetry.TraceID(uint64(seed)<<1 | 1)}
}

// span is an open span; end closes it.
type span struct {
	t      *tracer
	id     telemetry.SpanID
	parent telemetry.SpanID
	layer  string
	name   string
	attr   string
	start  time.Time
}

// start opens a span under parent (0 for a root).
func (t *tracer) start(layer, name string, parent telemetry.SpanID) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &span{t: t, id: id, parent: parent, layer: layer, name: name, start: time.Now()}
}

// startAt opens a span whose start is an earlier instant (an open-loop
// request's due time).
func (t *tracer) startAt(layer, name string, parent telemetry.SpanID, at time.Time) *span {
	s := t.start(layer, name, parent)
	if s != nil {
		s.start = at
	}
	return s
}

// ID is the span's ID, 0 for a nil span.
func (s *span) ID() telemetry.SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// setAttr labels the span (stored in the Cluster field).
func (s *span) setAttr(a string) {
	if s != nil {
		s.attr = a
	}
}

func (s *span) end() {
	if s == nil {
		return
	}
	end := time.Now()
	sp := telemetry.Span{
		Trace:   s.t.trace,
		ID:      s.id,
		Parent:  s.parent,
		Service: s.layer,
		Method:  s.name,
		Cluster: s.attr,
		Start:   s.start.Sub(s.t.epoch),
		End:     end.Sub(s.t.epoch),
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, sp)
	s.t.mu.Unlock()
}

// selfTimes sums each layer's self time: a span's duration minus the
// part of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	spans := append([]telemetry.Span(nil), t.spans...)
	t.mu.Unlock()
	children := map[telemetry.SpanID][]telemetry.Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.Service] += s.Latency() - covered
	}
	return out
}

// report fills the trace.* per-layer metrics.
func (t *tracer) report(r *result) {
	if t == nil {
		return
	}
	self := t.selfTimes()
	for _, l := range traceLayers {
		r.layer["trace.self_"+l+"_ms"] = ms(self[l])
	}
	r.layer["trace.spans"] = float64(len(t.spans))
}

// writeFile writes every span as JSONL through obs.SpanWriter and reads
// the file back with obs.ReadSpans, so the span tooling is known to
// accept it.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := obs.NewSpanWriter(bw).WriteSpans(t.spans); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rf, err := os.Open(path)
	if err != nil {
		return err
	}
	defer rf.Close()
	back, err := obs.ReadSpans(rf)
	if err != nil {
		return err
	}
	groups := obs.GroupTraces(back)
	if len(back) != len(t.spans) || (len(back) > 0 && len(groups[t.trace]) != len(back)) {
		return fmt.Errorf("read back %d spans in %d traces, wrote %d", len(back), len(groups), len(t.spans))
	}
	return nil
}
