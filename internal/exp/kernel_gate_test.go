package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"outcore/internal/sim"
	"outcore/internal/suite"
)

// gateRow is one kernel × cache cell of the kernel gate: the I/O calls,
// elements moved and PFS makespan of the c-opt dry-run simulation.
type gateRow struct {
	Calls    int64   `json:"calls"`
	Elems    int64   `json:"elems"`
	Makespan float64 `json:"makespan_s"`
}

const kernelGateFile = "testdata/kernel_gate.json"

// TestKernelGateGolden pins the deterministic simulation of the four
// kernels whose Table-2/3 behaviour spans the interesting regimes
// (mat, mxm, trans, syr2k) under the c-opt plan, on 4 processors over
// 16 I/O nodes, with the sequential runtime (cache 0) and an 8-tile
// engine. Calls and elements must match the golden exactly, the
// makespan to 1e-9 relative: any change to the plan, the schedule or
// the PFS model shows here as a count, not as drift inside a
// tolerance. On a mismatch the test prints the current rows; paste
// them into the golden only after an intentional change.
func TestKernelGateGolden(t *testing.T) {
	o := Options{
		Cfg:     suite.Config{N2: 64, N3: 12, N4: 4},
		PFS:     ScaledPFS(64, 16),
		MemFrac: 128,
	}
	cells := map[string]int{"sequential": 0, "engine": 8}
	got := map[string]gateRow{}
	for _, name := range []string{"mat", "mxm", "trans", "syr2k"} {
		k, ok := suite.ByName(name)
		if !ok {
			t.Fatalf("unknown kernel %q", name)
		}
		for cell, tiles := range cells {
			st := o.setup(k, suite.COpt, 4)
			st.CacheTiles = tiles
			m, err := sim.Run(st)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cell, err)
			}
			got[name+"/"+cell] = gateRow{m.Calls, m.Elems, m.Seconds}
		}
	}
	raw, err := os.ReadFile(filepath.FromSlash(kernelGateFile))
	if err != nil {
		t.Fatalf("%v; the current rows are:\n%s", err, gateJSON(got))
	}
	var want map[string]gateRow
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d rows, run produced %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		switch {
		case !ok:
			t.Errorf("%s: missing from the run", key)
		case g.Calls != w.Calls || g.Elems != w.Elems ||
			math.Abs(g.Makespan-w.Makespan) > 1e-9*math.Abs(w.Makespan):
			t.Errorf("%s: got %+v, golden %+v", key, g, w)
		}
	}
	if t.Failed() {
		t.Logf("the current rows are:\n%s", gateJSON(got))
	}
}

// gateJSON renders rows one per line, sorted, in the golden's format.
func gateJSON(rows map[string]gateRow) string {
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		r, _ := json.Marshal(rows[k])
		fmt.Fprintf(&b, "  %q: %s", k, r)
		if i < len(keys)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	return b.String()
}
