package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/machines"
	"sigkern/internal/svc"
)

// postDSE posts a DSERequest through the gateway and returns the
// response; the caller owns resp.Body.
func postDSE(t *testing.T, url string, req svc.DSERequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/dse", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readDSEStream decodes a merged /v1/dse NDJSON response into its
// point lines plus the final gateway summary.
func readDSEStream(t *testing.T, body io.Reader) (points []svc.DSEPoint, sum svc.DSESummary) {
	t.Helper()
	dec := json.NewDecoder(body)
	sawSummary := false
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("bad stream line: %v", err)
		}
		if sawSummary {
			t.Fatalf("line after summary: %s", raw)
		}
		var probe struct {
			Index  *int `json:"index"`
			Points *int `json:"points"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatalf("bad stream line %q: %v", raw, err)
		}
		if probe.Points != nil && probe.Index == nil {
			if err := json.Unmarshal(raw, &sum); err != nil {
				t.Fatal(err)
			}
			sawSummary = true
			continue
		}
		var pt svc.DSEPoint
		if err := json.Unmarshal(raw, &pt); err != nil {
			t.Fatalf("bad point line %q: %v", raw, err)
		}
		points = append(points, pt)
	}
	if !sawSummary {
		t.Fatal("stream ended without a summary line")
	}
	return points, sum
}

// TestGatewayDSELanesSweep is the cluster half of the sweep acceptance
// criterion: the same VIRAM lanes exploration that works against one
// simserved works through simgate — split across shards by each
// design point's canonical spec hash, streamed back merged with global
// indices intact, and summarized under one gateway-computed Pareto
// frontier.
func TestGatewayDSELanesSweep(t *testing.T) {
	tc := newTestCluster(t, nil)
	resp := postDSE(t, tc.gwSrv.URL, svc.DSERequest{
		Base: svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn},
		Axes: []svc.DSEAxis{{Param: "viram.Lanes", Values: []int{2, 4, 8, 16}}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-DSE-Points"); got != "4" {
		t.Fatalf("X-DSE-Points = %q, want 4", got)
	}

	points, sum := readDSEStream(t, resp.Body)
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	byIndex := make(map[int]svc.DSEPoint, len(points))
	for _, pt := range points {
		if pt.State != svc.Done || pt.Error != "" {
			t.Fatalf("point %d (%s): state %s error %q", pt.Index, pt.Label, pt.State, pt.Error)
		}
		byIndex[pt.Index] = pt
	}
	// Global indices survive the shard split: 0..3 in axis order, and
	// the cycle counts improve monotonically with the lane count.
	var prev uint64
	for i := 0; i < 4; i++ {
		pt, ok := byIndex[i]
		if !ok {
			t.Fatalf("global index %d missing from merged stream (have %v)", i, byIndex)
		}
		if i > 0 && pt.Cycles >= prev {
			t.Fatalf("index %d (%s): cycles %d did not improve on %d", i, pt.Label, pt.Cycles, prev)
		}
		prev = pt.Cycles
	}
	// The lanes=8 point is the paper default: its override normalizes
	// away entirely, hashing like a legacy spec.
	if p8 := byIndex[2]; p8.Config != nil {
		t.Fatalf("lanes=8 point kept a config override: %+v", p8.Config)
	}

	if sum.Points != 4 || sum.Failed != 0 || !sum.Done {
		t.Fatalf("summary = %+v", sum)
	}
	if len(sum.Frontier) == 0 {
		t.Fatal("gateway summary has an empty Pareto frontier")
	}
	for i := 1; i < len(sum.Frontier); i++ {
		a, b := sum.Frontier[i-1], sum.Frontier[i]
		if b.Area < a.Area {
			t.Fatalf("frontier not sorted by area: %+v", sum.Frontier)
		}
		if b.Cycles >= a.Cycles && b.Area >= a.Area {
			t.Fatalf("frontier point %d dominated by %d: %+v", i, i-1, sum.Frontier)
		}
	}
}

// TestGatewayDSEEmptyExploration: no deltas and no axes is the base
// spec alone, end to end through the gateway.
func TestGatewayDSEEmptyExploration(t *testing.T) {
	tc := newTestCluster(t, nil)
	w := smallWorkload()
	resp := postDSE(t, tc.gwSrv.URL, svc.DSERequest{
		Base: svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	points, sum := readDSEStream(t, resp.Body)
	if len(points) != 1 || points[0].State != svc.Done || points[0].Cycles == 0 {
		t.Fatalf("points = %+v", points)
	}
	// The single base point matches a plain job submission for the
	// same spec bit for bit — the shard memo dedups the two.
	spec := svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w}
	jresp, job := tc.submit(t, spec, nil)
	if jresp.StatusCode != http.StatusOK || job.Result == nil {
		t.Fatalf("plain submit: %d %+v", jresp.StatusCode, job)
	}
	if job.Result.Cycles != points[0].Cycles {
		t.Fatalf("DSE base point %d cycles != plain job %d", points[0].Cycles, job.Result.Cycles)
	}
	if len(sum.Frontier) != 1 {
		t.Fatalf("frontier = %+v", sum.Frontier)
	}
}

// TestGatewayDSERequestErrors: malformed explorations are rejected at
// the gateway, before any shard sees a byte.
func TestGatewayDSERequestErrors(t *testing.T) {
	tc := newTestCluster(t, nil)
	t.Run("unknown axis", func(t *testing.T) {
		resp := postDSE(t, tc.gwSrv.URL, svc.DSERequest{
			Base: svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn},
			Axes: []svc.DSEAxis{{Param: "viram.Warp", Values: []int{1}}},
		})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("too many points", func(t *testing.T) {
		vals := make([]int, 0, 30)
		for v := 1; v <= 30; v++ {
			vals = append(vals, v)
		}
		resp := postDSE(t, tc.gwSrv.URL, svc.DSERequest{
			Base: svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn},
			Axes: []svc.DSEAxis{
				{Param: "viram.Lanes", Values: vals},
				{Param: "viram.MVL", Values: vals},
			},
		})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", resp.StatusCode)
		}
	})
	t.Run("bad base machine", func(t *testing.T) {
		resp := postDSE(t, tc.gwSrv.URL, svc.DSERequest{
			Base: svc.JobSpec{Machine: "Pentium", Kernel: core.CornerTurn},
		})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
}

// lanesSweepRequest is a 4-point viram.Lanes exploration over the
// small workload: cheap enough to run several times per test, wide
// enough to hash across more than one of three shards.
func lanesSweepRequest() svc.DSERequest {
	w := smallWorkload()
	return svc.DSERequest{
		Base: svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w},
		Axes: []svc.DSEAxis{{Param: "viram.Lanes", Values: []int{2, 4, 8, 16}}},
	}
}

// normalizedDesigns expands req and normalizes every point's spec.
func normalizedDesigns(t *testing.T, req svc.DSERequest) ([]svc.DSEDesign, []svc.JobSpec) {
	t.Helper()
	designs, err := req.Expand()
	if err != nil {
		t.Fatal(err)
	}
	norms := make([]svc.JobSpec, len(designs))
	for i, d := range designs {
		if norms[i], err = d.Spec.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	return designs, norms
}

// TestGatewayDSEShardDeathReroutes kills a shard that owns at least
// one design point before the exploration: its points reroute to ring
// successors, every index comes back exactly once with the cycles a
// single shard computes, and the merged frontier equals the
// single-shard frontier.
func TestGatewayDSEShardDeathReroutes(t *testing.T) {
	req := lanesSweepRequest()

	ref := svc.NewService(svc.Options{})
	refSrv := httptest.NewServer(ref.Handler())
	defer func() {
		refSrv.Close()
		ref.Close()
	}()
	refResp := postDSE(t, refSrv.URL, req)
	refPoints, refSum := readDSEStream(t, refResp.Body)
	refResp.Body.Close()
	refByIndex := make(map[int]svc.DSEPoint, len(refPoints))
	for _, pt := range refPoints {
		refByIndex[pt.Index] = pt
	}

	tc := newTestCluster(t, nil)
	_, norms := normalizedDesigns(t, req)
	var victim string
	for _, norm := range norms {
		hash, err := norm.Hash()
		if err != nil {
			t.Fatal(err)
		}
		victim = tc.gw.routeOrder(hash)[0]
		break
	}
	tc.servers[victim].Close()

	before := tc.gw.Metrics().Reroutes()
	resp := postDSE(t, tc.gwSrv.URL, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	points, sum := readDSEStream(t, resp.Body)
	if len(points) != len(norms) || sum.Points != len(norms) || sum.Failed != 0 {
		t.Fatalf("after killing %s: %d points, summary %+v", victim, len(points), sum)
	}
	seen := make(map[int]bool, len(points))
	for _, pt := range points {
		if seen[pt.Index] {
			t.Fatalf("index %d answered twice", pt.Index)
		}
		seen[pt.Index] = true
		want, ok := refByIndex[pt.Index]
		if !ok {
			t.Fatalf("unexpected index %d", pt.Index)
		}
		if pt.State != svc.Done || pt.Cycles != want.Cycles || pt.Label != want.Label {
			t.Fatalf("point %d: %+v, single shard %+v", pt.Index, pt, want)
		}
	}
	if tc.gw.Metrics().Reroutes() <= before {
		t.Fatal("shard death produced no reroute")
	}
	if len(tc.services[victim].Jobs()) != 0 {
		t.Fatalf("dead shard %s somehow ran jobs", victim)
	}
	if !reflect.DeepEqual(sum.Frontier, refSum.Frontier) {
		t.Fatalf("frontier %+v, single shard %+v", sum.Frontier, refSum.Frontier)
	}
}

// TestGatewayDSEAllShardsDeadSynthesizesFailures: with the whole ring
// down, every design point still comes back — as a synthesized failed
// line keeping its index, label and normalized config — and the
// summary counts every point failed.
func TestGatewayDSEAllShardsDeadSynthesizesFailures(t *testing.T) {
	tc := newTestCluster(t, nil)
	for _, srv := range tc.servers {
		srv.Close()
	}
	req := lanesSweepRequest()
	designs, norms := normalizedDesigns(t, req)
	resp := postDSE(t, tc.gwSrv.URL, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	points, sum := readDSEStream(t, resp.Body)
	if len(points) != len(designs) || sum.Points != len(designs) || sum.Failed != len(designs) {
		t.Fatalf("%d points, summary %+v, want %d failed", len(points), sum, len(designs))
	}
	if len(sum.Frontier) != 0 {
		t.Fatalf("frontier %+v over failed points", sum.Frontier)
	}
	seen := make(map[int]bool, len(points))
	for _, pt := range points {
		if pt.Index < 0 || pt.Index >= len(designs) || seen[pt.Index] {
			t.Fatalf("index %d out of range or repeated", pt.Index)
		}
		seen[pt.Index] = true
		if pt.State != svc.Failed || pt.Error == "" {
			t.Fatalf("point %d: state %s error %q, want synthesized failure", pt.Index, pt.State, pt.Error)
		}
		if pt.Label != designs[pt.Index].Label {
			t.Fatalf("point %d label %q, want %q", pt.Index, pt.Label, designs[pt.Index].Label)
		}
		if got, want := configHash(pt.Config), configHash(norms[pt.Index].Config); got != want {
			t.Fatalf("point %d config hash %q, want normalized %q", pt.Index, got, want)
		}
		// Synthesized points sit on the area axis like shard-failed ones.
		if pt.Area <= 0 || pt.AreaDesc == "" {
			t.Fatalf("point %d has no area proxy: %+v", pt.Index, pt)
		}
	}
}

// configHash is the identity of an optional config override ("" for
// paper defaults).
func configHash(c *machines.ConfigSet) string {
	if c == nil {
		return ""
	}
	return c.Hash()
}

// TestGatewayConfigMismatchRefusesWrites is the wrong-result hazard
// from the issue: one shard restarted with different hardware
// parameters must not silently answer specs the ring routes to it.
// While ready shards report different config-set hashes the gateway
// refuses every write path with 503 and counts
// simgate_config_mismatch_total; reads keep flowing; /healthz reports
// the broken consensus.
func TestGatewayConfigMismatchRefusesWrites(t *testing.T) {
	var shards []Shard
	servers := make([]*httptest.Server, 0, 2)
	services := make([]*svc.Service, 0, 2)
	for _, opt := range []svc.Options{
		{ShardID: "s1"}, // paper-default config hash
		{ShardID: "s2", ConfigHash: "not-the-paper-hardware"},
	} {
		s := svc.NewService(opt)
		srv := httptest.NewServer(s.Handler())
		services = append(services, s)
		servers = append(servers, srv)
		shards = append(shards, Shard{Name: opt.ShardID, URL: srv.URL})
	}
	gw, err := NewGateway(Options{
		Shards:        shards,
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start() // synchronous first sweep records both config hashes
	gwSrv := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		gwSrv.Close()
		gw.Close()
		for i, srv := range servers {
			srv.Close()
			services[i].Close()
		}
	})

	if _, ok := gw.Prober().ConfigConsensus(); ok {
		t.Fatal("prober reports consensus across shards with different config hashes")
	}

	w := smallWorkload()
	specBody, _ := json.Marshal(svc.JobSpec{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w})
	for _, path := range []string{"/v1/jobs", "/v1/batch"} {
		resp, err := http.Post(gwSrv.URL+path, "application/json", bytes.NewReader(specBody))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %s: status %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("POST %s: 503 without Retry-After", path)
		}
	}
	dresp := postDSE(t, gwSrv.URL, svc.DSERequest{
		Base: svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w},
	})
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /v1/dse: status %d, want 503", dresp.StatusCode)
	}
	if got := gw.Metrics().Snapshot().ConfigMismatch; got < 3 {
		t.Fatalf("config_mismatch_total = %d, want >= 3", got)
	}

	// Reads are config-agnostic and keep flowing.
	lresp, err := http.Get(gwSrv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs during mismatch: %d", lresp.StatusCode)
	}

	// /healthz surfaces the broken consensus as degraded.
	hresp, err := http.Get(gwSrv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health GatewayHealth
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable || health.Status != "degraded" {
		t.Fatalf("healthz = %d %q, want 503 degraded", hresp.StatusCode, health.Status)
	}
	if health.ConfigConsensus {
		t.Fatal("healthz claims config consensus during a mismatch")
	}
}

// TestGatewayConfigConsensusAllowsWrites: agreeing shards — the normal
// cluster — pass the guard, and the agreed hash shows up in /healthz.
func TestGatewayConfigConsensusAllowsWrites(t *testing.T) {
	tc := newTestCluster(t, nil)
	hash, ok := tc.gw.Prober().ConfigConsensus()
	if !ok || hash == "" {
		t.Fatalf("consensus = %q %v on an agreeing cluster", hash, ok)
	}
	w := smallWorkload()
	resp, job := tc.submit(t, svc.JobSpec{Machine: "Imagine", Kernel: core.CornerTurn, Workload: &w}, nil)
	if resp.StatusCode != http.StatusOK || job.State != svc.Done {
		t.Fatalf("submit through agreeing cluster: %d %+v", resp.StatusCode, job)
	}
	if got := tc.gw.Metrics().Snapshot().ConfigMismatch; got != 0 {
		t.Fatalf("config_mismatch_total = %d on an agreeing cluster", got)
	}

	hresp, err := http.Get(tc.gwSrv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health GatewayHealth
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.ConfigHash != hash || !health.ConfigConsensus {
		t.Fatalf("healthz config fields = %q %v, want %q true", health.ConfigHash, health.ConfigConsensus, hash)
	}
}
