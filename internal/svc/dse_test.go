package svc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"sigkern/internal/core"
	"sigkern/internal/machines"
)

// TestDSEExpand pins the expansion contract: deltas first, then the
// axes' row-major cross product, and base-only when neither is given.
func TestDSEExpand(t *testing.T) {
	base := JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn}

	t.Run("empty is the base point", func(t *testing.T) {
		designs, err := DSERequest{Base: base}.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(designs) != 1 || designs[0].Label != "base" || designs[0].Spec.Config != nil {
			t.Fatalf("designs = %+v", designs)
		}
	})

	t.Run("axes cross row-major", func(t *testing.T) {
		req := DSERequest{Base: base, Axes: []DSEAxis{
			{Param: "viram.Lanes", Values: []int{4, 8}},
			{Param: "viram.MVL", Values: []int{32, 64, 128}},
		}}
		designs, err := req.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(designs) != 6 {
			t.Fatalf("point count = %d, want 6", len(designs))
		}
		// First axis slowest: lanes=4 covers the first three points.
		if designs[0].Label != "viram.Lanes=4 viram.MVL=32" {
			t.Fatalf("label[0] = %q", designs[0].Label)
		}
		if designs[5].Label != "viram.Lanes=8 viram.MVL=128" {
			t.Fatalf("label[5] = %q", designs[5].Label)
		}
		for i, d := range designs {
			if d.Index != i {
				t.Fatalf("index[%d] = %d", i, d.Index)
			}
			if d.Spec.Config == nil || d.Spec.Config.VIRAM == nil {
				t.Fatalf("point %d has no VIRAM section", i)
			}
		}
		// The axis expansion scales the co-dependent parameters, not just
		// the named field.
		cfg := designs[0].Spec.Config.VIRAM
		if cfg.Lanes != 4 || cfg.FPLanes != 4 || cfg.DRAM.SeqWordsPerCycle != 4 || cfg.DRAM.AddrGens != 2 {
			t.Fatalf("lanes=4 expansion = %+v", cfg)
		}
		if cfg.MVL != 32 {
			t.Fatalf("MVL = %d, want 32", cfg.MVL)
		}
	})

	t.Run("deltas precede axes", func(t *testing.T) {
		req := DSERequest{
			Base:   base,
			Deltas: []machines.ConfigSet{{}},
			Axes:   []DSEAxis{{Param: "viram.MVL", Values: []int{128}}},
		}
		designs, err := req.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(designs) != 2 || designs[0].Index != 0 || designs[1].Index != 1 {
			t.Fatalf("designs = %+v", designs)
		}
		if designs[0].Spec.Config != nil {
			t.Fatalf("empty delta kept a config: %+v", designs[0].Spec.Config)
		}
	})

	t.Run("errors", func(t *testing.T) {
		if _, err := (DSERequest{Base: base, Axes: []DSEAxis{{Param: "viram.Stride", Values: []int{1}}}}).Expand(); err == nil || !strings.Contains(err.Error(), "unknown sweep axis") {
			t.Fatalf("unknown axis error = %v", err)
		}
		if _, err := (DSERequest{Base: base, Axes: []DSEAxis{{Param: "viram.Lanes"}}}).Expand(); err == nil || !strings.Contains(err.Error(), "no values") {
			t.Fatalf("empty axis error = %v", err)
		}
		if _, err := (DSERequest{Base: base, Axes: []DSEAxis{{Param: "viram.Lanes", Values: []int{0}}}}).Expand(); err == nil {
			t.Fatal("lanes=0 accepted")
		}
		// The cap must trip in O(axes), before the cross product is
		// materialized: three 100-value axes nominally expand to 10^6.
		big := make([]int, 100)
		for i := range big {
			big[i] = i + 1
		}
		over := DSERequest{Base: base, Axes: []DSEAxis{
			{Param: "viram.Lanes", Values: big},
			{Param: "viram.MVL", Values: big},
			{Param: "imagine.Clusters", Values: big},
		}}
		if _, err := over.Expand(); !errors.Is(err, ErrDSETooLarge) {
			t.Fatalf("oversize error = %v", err)
		}
	})
}

// TestParetoFrontier pins dominance: a point survives unless another is
// at least as good on both coordinates and strictly better on one.
func TestParetoFrontier(t *testing.T) {
	pts := []DSEFrontierPoint{
		{Index: 0, Cycles: 100, Area: 10},
		{Index: 1, Cycles: 80, Area: 20},  // frontier
		{Index: 2, Cycles: 90, Area: 25},  // dominated by 1
		{Index: 3, Cycles: 100, Area: 15}, // dominated by 0
		{Index: 4, Cycles: 60, Area: 40},  // frontier
	}
	got := ParetoFrontier(pts)
	want := []int{0, 1, 4} // sorted by ascending area
	if len(got) != len(want) {
		t.Fatalf("frontier = %+v", got)
	}
	for i, idx := range want {
		if got[i].Index != idx {
			t.Fatalf("frontier[%d].Index = %d, want %d (%+v)", i, got[i].Index, idx, got)
		}
	}
	// Exact ties on both coordinates all survive.
	ties := ParetoFrontier([]DSEFrontierPoint{{Index: 0, Cycles: 5, Area: 5}, {Index: 1, Cycles: 5, Area: 5}})
	if len(ties) != 2 {
		t.Fatalf("tied points = %+v", ties)
	}
	if ParetoFrontier(nil) != nil {
		t.Fatal("empty frontier not nil")
	}
}

// postDSE posts a DSERequest and returns the response; the caller owns
// resp.Body.
func postDSE(t *testing.T, url string, req DSERequest) *http.Response {
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

// readDSEStream decodes a /v1/dse NDJSON response into its point lines
// plus the final summary.
func readDSEStream(t *testing.T, body io.Reader) (points []DSEPoint, sum DSESummary) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	sawSummary := false
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if sawSummary {
			t.Fatalf("line after summary: %s", raw)
		}
		var probe struct {
			Index  *int `json:"index"`
			Points *int `json:"points"`
			Done   bool `json:"done"`
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
		var pt DSEPoint
		if err := json.Unmarshal(raw, &pt); err != nil {
			t.Fatalf("bad point line %q: %v", raw, err)
		}
		points = append(points, pt)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSummary {
		t.Fatal("stream ended without a summary line")
	}
	return points, sum
}

// TestHTTPDSEBaseMatchesPaperCell is the acceptance identity: an
// exploration with no deltas and no axes runs exactly the base spec,
// and for a default base its cycles are bit-identical to the paper
// cell /v1/tables/3 reports.
func TestHTTPDSEBaseMatchesPaperCell(t *testing.T) {
	_, srv := newTestServer(t)

	resp := postDSE(t, srv.URL, DSERequest{Base: JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-DSE-Points"); got != "1" {
		t.Fatalf("X-DSE-Points = %q", got)
	}
	points, sum := readDSEStream(t, resp.Body)
	if len(points) != 1 || sum.Points != 1 || sum.Failed != 0 {
		t.Fatalf("points %+v summary %+v", points, sum)
	}
	pt := points[0]
	if pt.State != Done || pt.Label != "base" || pt.Config != nil {
		t.Fatalf("point = %+v", pt)
	}

	var td TableData
	getJSON(t, srv.URL+"/v1/tables/3", &td)
	want := td.Cycles["VIRAM"][core.CornerTurn]
	if want == 0 || pt.Cycles != want {
		t.Fatalf("dse cycles = %d, table 3 cell = %d", pt.Cycles, want)
	}
	if len(sum.Frontier) != 1 || sum.Frontier[0].Cycles != want {
		t.Fatalf("frontier = %+v", sum.Frontier)
	}
}

// TestHTTPDSELanesSweep is the acceptance sweep: VIRAM lanes 2/4/8/16
// over the paper corner turn returns four distinct, monotonically
// improving cycle counts, a non-empty frontier, and — because the
// lanes=8 point is the paper default — a config that normalizes away
// entirely, making that point hash-identical to a legacy spec.
func TestHTTPDSELanesSweep(t *testing.T) {
	_, srv := newTestServer(t)

	// Prime the memo with the legacy (config-free) spec: if the lanes=8
	// point's identity really collapses to it, the sweep serves that
	// point from cache.
	legacy, _ := json.Marshal(JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn})
	jresp, err := http.Post(srv.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	var legacyJob Job
	if err := json.NewDecoder(jresp.Body).Decode(&legacyJob); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if legacyJob.State != Done || legacyJob.Result == nil {
		t.Fatalf("legacy job = %+v", legacyJob)
	}

	resp := postDSE(t, srv.URL, DSERequest{
		Base: JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn},
		Axes: []DSEAxis{{Param: "viram.Lanes", Values: []int{2, 4, 8, 16}}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	points, sum := readDSEStream(t, resp.Body)
	if len(points) != 4 || sum.Failed != 0 {
		t.Fatalf("points %d failed %d", len(points), sum.Failed)
	}
	byIndex := make(map[int]DSEPoint, 4)
	for _, pt := range points {
		if pt.State != Done {
			t.Fatalf("point %+v not done", pt)
		}
		byIndex[pt.Index] = pt
	}
	var prev uint64
	for i := 0; i < 4; i++ {
		pt, ok := byIndex[i]
		if !ok {
			t.Fatalf("missing point %d", i)
		}
		if i > 0 && pt.Cycles >= prev {
			t.Fatalf("cycles not strictly improving at %s: %d then %d", pt.Label, prev, pt.Cycles)
		}
		prev = pt.Cycles
		if pt.Area <= 0 || pt.AreaDesc == "" {
			t.Fatalf("point %s has no area proxy: %+v", pt.Label, pt)
		}
	}
	// Lanes=8 is the paper part: its delta cancels against the defaults,
	// so the point carries no config, matches the legacy run bit for
	// bit, and was served from its memo entry.
	p8 := byIndex[2]
	if p8.Config != nil {
		t.Fatalf("lanes=8 config survived normalization: %+v", p8.Config)
	}
	if p8.Cycles != legacyJob.Result.Cycles {
		t.Fatalf("lanes=8 cycles %d != legacy %d", p8.Cycles, legacyJob.Result.Cycles)
	}
	if !p8.FromCache {
		t.Fatal("lanes=8 point missed the legacy memo entry")
	}
	if len(sum.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	// The frontier is sorted by ascending area and never dominated.
	for i := 1; i < len(sum.Frontier); i++ {
		if sum.Frontier[i].Area < sum.Frontier[i-1].Area {
			t.Fatalf("frontier not sorted by area: %+v", sum.Frontier)
		}
		if sum.Frontier[i].Cycles >= sum.Frontier[i-1].Cycles {
			t.Fatalf("frontier point dominated: %+v", sum.Frontier)
		}
	}
}

// TestHTTPDSEErrors pins the endpoint's refusal statuses.
func TestHTTPDSEErrors(t *testing.T) {
	_, srv := newTestServer(t)

	t.Run("unknown axis is 400", func(t *testing.T) {
		resp := postDSE(t, srv.URL, DSERequest{
			Base: JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn},
			Axes: []DSEAxis{{Param: "viram.Bogus", Values: []int{1}}},
		})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("over the point cap is 413", func(t *testing.T) {
		vals := make([]int, MaxDSEPoints+1)
		for i := range vals {
			vals[i] = i + 1
		}
		resp := postDSE(t, srv.URL, DSERequest{
			Base: JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn},
			Axes: []DSEAxis{{Param: "viram.MVL", Values: vals}},
		})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", resp.StatusCode)
		}
	})

	t.Run("bad base machine is 400 with the point label", func(t *testing.T) {
		resp := postDSE(t, srv.URL, DSERequest{Base: JobSpec{Machine: "Pentium", Kernel: core.CornerTurn}})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		var pe ParamError
		if err := json.NewDecoder(resp.Body).Decode(&pe); err != nil {
			t.Fatal(err)
		}
		if pe.Parameter != "point" || pe.Value != "base" {
			t.Fatalf("ParamError = %+v", pe)
		}
	})

	t.Run("unknown body field is 400", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/v1/dse", "application/json",
			strings.NewReader(`{"base":{"machine":"VIRAM","kernel":"corner-turn"},"axess":[]}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
}
