package main

import (
	"bytes"
	"strconv"
	"strings"

	"github.com/servicelayernetworking/slate/internal/obs"
)

// sample is one series value from the Prometheus exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// promSnap is one scrape of the program's own obs counters, read the
// way an operator would: through the registry's Prometheus text
// exposition.
type promSnap []sample

func takeSnap() (promSnap, error) {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	var out promSnap
	for _, ln := range strings.Split(buf.String(), "\n") {
		if ln == "" || ln[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(ln, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(ln[i+1:], 64)
		if err != nil {
			continue
		}
		s := sample{name: ln[:i], value: v}
		if j := strings.IndexByte(s.name, '{'); j >= 0 {
			s.labels = parseLabels(s.name[j+1 : len(s.name)-1])
			s.name = s.name[:j]
		}
		out = append(out, s)
	}
	return out, nil
}

// parseLabels splits `a="x",b="y"`; label values in this repo carry no
// quotes or commas.
func parseLabels(s string) map[string]string {
	m := map[string]string{}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if ok {
			m[k] = strings.Trim(v, `"`)
		}
	}
	return m
}

// sum adds every series of a family, optionally filtered.
func (p promSnap) sum(name string, keep func(map[string]string) bool) float64 {
	var t float64
	for _, s := range p {
		if s.name == name && (keep == nil || keep(s.labels)) {
			t += s.value
		}
	}
	return t
}

// delta is after.sum - before.sum for one family.
func delta(before, after promSnap, name string, keep func(map[string]string) bool) float64 {
	return after.sum(name, keep) - before.sum(name, keep)
}
