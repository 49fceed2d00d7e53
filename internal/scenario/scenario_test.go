package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/servicelayernetworking/slate/internal/almost"
	"github.com/servicelayernetworking/slate/internal/topology"
)

func write(t *testing.T, doc string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "scn.json")
	if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadPresetScenario(t *testing.T) {
	p := write(t, `{
	  "topology": {"preset": "two-clusters", "rtt_ms": 25},
	  "app": {"preset": "linear-chain", "preset_options": {"services": 2, "mean_service_time_ms": 5}},
	  "demand": {"default": {"west": 500, "east": 100}}
	}`)
	top, app, demand, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if top.RTT(topology.West, topology.East).Milliseconds() != 25 {
		t.Errorf("rtt = %v", top.RTT(topology.West, topology.East))
	}
	if len(app.Services) != 3 { // gateway + 2
		t.Errorf("services = %d", len(app.Services))
	}
	if !almost.Equal(demand["default"][topology.West], 500) {
		t.Errorf("demand = %v", demand)
	}
}

func TestLoadGCPPreset(t *testing.T) {
	p := write(t, `{
	  "topology": {"preset": "gcp"},
	  "app": {"preset": "anomaly-detection", "preset_options": {
	    "clusters": ["or", "ut", "iow", "sc"], "db_clusters": ["sc"]}},
	  "demand": {"detect": {"or": 100}}
	}`)
	top, app, _, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if top.NumClusters() != 4 {
		t.Errorf("clusters = %d", top.NumClusters())
	}
	db := app.Service("db")
	if db.PlacedIn(topology.OR) || !db.PlacedIn(topology.SC) {
		t.Errorf("db placement wrong: %v", db.Placement)
	}
}

func TestLoadExplicitScenario(t *testing.T) {
	p := write(t, `{
	  "topology": {
	    "clusters": [{"id": "a"}, {"id": "b"}],
	    "links": [{"a": "a", "b": "b", "rtt_ms": 15, "egress_per_gb": 0.02}]
	  },
	  "app": {
	    "name": "custom",
	    "services": [
	      {"id": "fe", "placement": {"a": {"replicas": 1, "concurrency": 8}, "b": {"replicas": 1, "concurrency": 8}}},
	      {"id": "be", "placement": {"a": {"replicas": 2, "concurrency": 2}, "b": {"replicas": 2, "concurrency": 2}}}
	    ],
	    "classes": [{
	      "name": "main",
	      "root": {
	        "service": "fe", "method": "GET", "path": "/", "service_time_ms": 0.5,
	        "children": [{"service": "be", "method": "GET", "path": "/q",
	          "service_time_ms": 4, "deterministic": true, "count": 2,
	          "response_bytes": 2048}]
	      }
	    }]
	  },
	  "demand": {"main": {"a": 50}}
	}`)
	top, app, demand, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if !almost.Equal(top.EgressCostPerGB("a", "b"), 0.02) {
		t.Errorf("egress = %v", top.EgressCostPerGB("a", "b"))
	}
	cl := app.Class("main")
	be := cl.Root.Children[0]
	if be.Count != 2 || be.Work.ResponseBytes != 2048 {
		t.Errorf("child spec lost: %+v", be)
	}
	if be.Work.Dist.String() != "deterministic" {
		t.Errorf("dist = %v", be.Work.Dist)
	}
	if !almost.Equal(demand["main"]["a"], 50) {
		t.Errorf("demand = %v", demand)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"bad json", `{`, "parse"},
		{"unknown topology preset", `{"topology":{"preset":"mars"},"app":{"preset":"linear-chain"}}`, "unknown topology preset"},
		{"unknown app preset", `{"topology":{"preset":"gcp"},"app":{"preset":"nope"}}`, "unknown app preset"},
		{"empty explicit app", `{"topology":{"preset":"gcp"},"app":{}}`, "needs services and classes"},
		{"demand unknown class", `{"topology":{"preset":"two-clusters"},"app":{"preset":"linear-chain"},"demand":{"ghost":{"west":1}}}`, "unknown class"},
		{"demand unknown cluster", `{"topology":{"preset":"two-clusters"},"app":{"preset":"linear-chain"},"demand":{"default":{"mars":1}}}`, "unknown cluster"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := Load(write(t, tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, _, _, err := Load("/does/not/exist.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestFileRoundTripThroughJSON(t *testing.T) {
	f := File{
		Topology: TopologySpec{Preset: "two-clusters", RTTMS: 30},
		App:      AppSpec{Preset: "two-class"},
		Demand:   map[string]map[string]float64{"L": {"west": 10}},
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var got File
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := got.Materialize(); err != nil {
		t.Fatal(err)
	}
}
