package machines

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sigkern/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current simulators")

// TestTable3ResultGolden pins every field a Table 3 result carries —
// exact cycles, ops, words, verification, and the rendered cycle
// breakdown and event counters — for all 15 machine×kernel cells.
// The ratio and band tests in machines_test.go tolerate drift; this one
// does not, so a refactor of the simulators' bookkeeping must leave
// every byte of every cell unchanged. Regenerate with `go test -run Golden -update`
// only when a model change is meant to move the numbers.
func TestTable3ResultGolden(t *testing.T) {
	sr := study(t)
	var buf bytes.Buffer
	for _, m := range sr.Machines() {
		for _, k := range core.Kernels() {
			r, _ := sr.Result(m.Name(), k)
			fmt.Fprintf(&buf, "%s/%s\n", m.Name(), k)
			fmt.Fprintf(&buf, "  cycles=%d ops=%d words=%d verified=%t\n", r.Cycles, r.Ops, r.Words, r.Verified)
			fmt.Fprintf(&buf, "  breakdown: %s\n", r.Breakdown.String())
			fmt.Fprintf(&buf, "  stats: %s\n", r.Stats.String())
		}
	}
	path := filepath.Join("testdata", "table3_results.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := buf.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
