package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"

	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/machines"
)

// offByOne is a machine that answers one cycle more than the real one.
type offByOne struct{ core.Machine }

func (m offByOne) bump(r core.Result, err error) (core.Result, error) {
	r.Cycles++
	return r, err
}

func (m offByOne) RunCornerTurn(s cornerturn.Spec) (core.Result, error) {
	return m.bump(m.Machine.RunCornerTurn(s))
}

func (m offByOne) RunCSLC(s cslc.Spec) (core.Result, error) {
	return m.bump(m.Machine.RunCSLC(s))
}

func (m offByOne) RunBeamSteering(s beamsteer.Spec) (core.Result, error) {
	return m.bump(m.Machine.RunBeamSteering(s))
}

func wrongFactory(name string) (core.Machine, error) {
	m, err := machines.ByName(name)
	if err != nil {
		return nil, err
	}
	return offByOne{m}, nil
}

func runShort(t *testing.T, workload string, trace bool, factory func(string) (core.Machine, error)) outcome {
	t.Helper()
	out, err := run(config{workload: workload, seed: 3, seconds: 1, trace: trace, factory: factory, report: io.Discard})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return out
}

// TestGateTripsOnWrongCycles serves every workload from machines that
// are off by one cycle: the correctness gate must fail each run.
func TestGateTripsOnWrongCycles(t *testing.T) {
	for _, w := range workloadNames() {
		if out := runShort(t, w, false, wrongFactory); out.Correct {
			t.Errorf("%s: gate passed answers one cycle off", w)
		}
	}
}

// TestRunsPassAndReportEveryMetric runs every workload briefly, untraced
// and traced, with the real machines, and checks each run reports
// exactly the metrics BENCHMARK.json names, in its units.
func TestRunsPassAndReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		for _, trace := range []bool{false, true} {
			out := runShort(t, w.Name, trace, nil)
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed", w.Name, trace, out.Correct, out.Failed, out.Attempted)
			}
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
