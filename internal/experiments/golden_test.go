package experiments

import (
	"bytes"
	"strings"
	"testing"

	"stringoram/internal/sim"
)

// TestAnalyticTablesGolden pins the exact text of the two analytic
// experiments. These are pure functions of the paper's constants, so any
// change here is either an intentional format change (update the golden)
// or a regression in the capacity math.
// trimTrail removes per-line trailing whitespace (the renderer pads the
// last column).
func trimTrail(s string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = strings.TrimRight(lines[i], " ")
	}
	return strings.Join(lines, "\n")
}

func TestAnalyticTablesGolden(t *testing.T) {
	var fig4 bytes.Buffer
	if err := Fig4().Render(&fig4); err != nil {
		t.Fatal(err)
	}
	wantFig4 := strings.TrimLeft(`
Fig. 4 — Ring ORAM memory space utilization (L=23, 64B blocks)
config    Z   A   S   real-GB  dummy-GB  total-GB  efficiency
--------  --  --  --  -------  --------  --------  ----------
Config-1  4   3   5   4.0000   5.0000    9.0000    44.44%
Config-2  8   8   12  8.0000   12.00     20.00     40.00%
Config-3  16  20  27  16.00    27.00     43.00     37.21%
Config-4  32  46  58  32.00    58.00     90.00     35.56%
`, "\n")
	if trimTrail(fig4.String()) != wantFig4 {
		t.Errorf("Fig4 output changed:\n--- got ---\n%s--- want ---\n%s", fig4.String(), wantFig4)
	}

	var tv bytes.Buffer
	if err := TableV().Render(&tv); err != nil {
		t.Fatal(err)
	}
	wantTV := strings.TrimLeft(`
Table V — CB configurations and space saving (Z=8, S=12, L=23)
config    Y  total-GB  dummy-%  paper-total-GB  paper-dummy-%
--------  -  --------  -------  --------------  -------------
Baseline  0  20.00     60.00%   20.00           60%
Config-1  2  18.00     55.56%   18.00           55.6%
Config-2  4  16.00     50.00%   16.00           50%
Config-3  6  14.00     42.86%   14.00           42.9%
Config-4  8  12.00     33.33%   12.00           33.3%
`, "\n")
	if trimTrail(tv.String()) != wantTV {
		t.Errorf("TableV output changed:\n--- got ---\n%s--- want ---\n%s", tv.String(), wantTV)
	}
}

// TestSimulationDeterminismGolden pins a checksum-style scalar from a
// tiny simulated experiment: identical binaries must reproduce identical
// cycle counts for identical seeds.
func TestSimulationDeterminismGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	run := func() int64 {
		r := NewRunner(Scale{Accesses: 120, Levels: 10, Seed: 12345})
		res, err := r.run("black", SchemeCB.Apply(r.Scale.System(), 8), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced %d and %d cycles", a, b)
	}
}
