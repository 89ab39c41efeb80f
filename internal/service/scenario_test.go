package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"checkpointsim/internal/exp"
	"checkpointsim/internal/network"
)

func scenarioBody(sc exp.Scenario) string {
	b, err := json.Marshal(SweepRequest{Scenario: &sc})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// The wire form clients marshal from SweepRequest decodes and resolves
// back to the same scenario and network preset.
func TestScenarioRequestWireForm(t *testing.T) {
	sched, err := exp.DefaultCampaignSpace().Schedule(5, 24)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range sched {
		net := []string{"", "default", "capability", "ethernet"}[i%4]
		body, err := json.Marshal(SweepRequest{Scenario: &sc, Net: net})
		if err != nil {
			t.Fatal(err)
		}
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
		e, o, err := req.resolve()
		if err != nil {
			t.Fatalf("resolve %s: %v", body, err)
		}
		if req.Scenario == nil || *req.Scenario != sc || e.ID != sc.ID() {
			t.Errorf("%s resolved to scenario %+v (%s), want %+v", body, req.Scenario, e.ID, sc)
		}
		if net == "" {
			net = "default"
		}
		if want, _ := network.Preset(net); o.Net != want {
			t.Errorf("%s resolved to network %+v, want preset %q", body, o.Net, net)
		}
	}
}

// The campaign's core consistency property, asserted at the service
// boundary: a fresh sweepd run of a scenario, the subsequent cache hit,
// and a local run encoded with EncodeScenarioResult are all byte-identical.
func TestScenarioCacheConsistency(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sc := exp.Scenario{Workload: "stencil2d", Ranks: 8, Protocol: "coordinated",
		FailureLaw: "exp", Storage: "pfs", Noise: "periodic", Seed: 7}

	resp := postJSON(t, ts.URL+"/api/v1/run", scenarioBody(sc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh run: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	if src := resp.Header.Get("X-Sweepd-Source"); src != "computed" {
		t.Errorf("fresh run source = %q, want computed", src)
	}
	fresh := readBody(t, resp)

	resp = postJSON(t, ts.URL+"/api/v1/run", scenarioBody(sc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached run: status %d", resp.StatusCode)
	}
	if src := resp.Header.Get("X-Sweepd-Source"); src != "hit" {
		t.Errorf("second run source = %q, want hit", src)
	}
	hit := readBody(t, resp)
	if !bytes.Equal(fresh, hit) {
		t.Fatalf("cache hit differs from fresh run:\n--- fresh ---\n%s\n--- hit ---\n%s", fresh, hit)
	}

	tables, err := sc.Run(exp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	local, err := EncodeScenarioResult(sc, tables)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, local) {
		t.Fatalf("local run differs from service result:\n--- local ---\n%s\n--- service ---\n%s", local, fresh)
	}
}

// Scenario requests respect the format parameter like experiment requests.
func TestScenarioFormats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sc := exp.Scenario{Workload: "sweep", Ranks: 8, Protocol: "none",
		FailureLaw: "none", Storage: "none", Noise: "none", Seed: 3}
	resp := postJSON(t, ts.URL+"/api/v1/run?format=text", scenarioBody(sc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	text := string(readBody(t, resp))
	for _, want := range []string{"Campaign campaign:sweep/p8/none/none/none/none@3", "makespan_ns", "validate"} {
		if !strings.Contains(text, want) {
			t.Errorf("text format missing %q:\n%s", want, text)
		}
	}
}

// Malformed scenario requests are client errors, with messages naming the
// offending axis or conflict.
func TestScenarioRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		body   string
		errHas string
	}{
		{"both exp and scenario",
			`{"exp":"E1","scenario":{"workload":"sweep","ranks":8,"protocol":"none","failure_law":"none","storage":"none","noise":"none"}}`,
			"both an experiment"},
		{"scenario with seed",
			`{"seed":1,"scenario":{"workload":"sweep","ranks":8,"protocol":"none","failure_law":"none","storage":"none","noise":"none"}}`,
			"do not apply"},
		{"scenario with quick",
			`{"quick":true,"scenario":{"workload":"sweep","ranks":8,"protocol":"none","failure_law":"none","storage":"none","noise":"none"}}`,
			"do not apply"},
		{"unknown protocol",
			`{"scenario":{"workload":"sweep","ranks":8,"protocol":"raft","failure_law":"none","storage":"none","noise":"none"}}`,
			"unknown protocol"},
		{"failures without protocol",
			`{"scenario":{"workload":"sweep","ranks":8,"protocol":"none","failure_law":"exp","storage":"none","noise":"none"}}`,
			"need a checkpoint protocol"},
		{"unknown workload",
			`{"scenario":{"workload":"quicksort","ranks":8,"protocol":"none","failure_law":"none","storage":"none","noise":"none"}}`,
			"unknown workload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/api/v1/run", tc.body)
			body := string(readBody(t, resp))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			if !strings.Contains(body, tc.errHas) {
				t.Errorf("error %q does not mention %q", body, tc.errHas)
			}
		})
	}
}

// ScenarioCacheKey separates scenarios and never collides with experiment
// keys; the network preset is part of the address.
func TestScenarioCacheKey(t *testing.T) {
	sc := exp.Scenario{Workload: "cg", Ranks: 16, Protocol: "partner",
		FailureLaw: "none", Storage: "burst", Noise: "none", Seed: 9}
	a := ScenarioCacheKey("v1", sc, network.DefaultParams())
	if a != ScenarioCacheKey("v1", sc, network.DefaultParams()) {
		t.Fatal("equal scenarios produced different keys")
	}
	if a == ScenarioCacheKey("v2", sc, network.DefaultParams()) {
		t.Error("version does not separate keys")
	}
	if a == ScenarioCacheKey("v1", sc, network.EthernetClassParams()) {
		t.Error("network preset does not separate keys")
	}
	other := sc
	other.Seed = 10
	if a == ScenarioCacheKey("v1", other, network.DefaultParams()) {
		t.Error("seed does not separate keys")
	}
}
