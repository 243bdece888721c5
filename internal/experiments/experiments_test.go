package experiments

import (
	"bytes"
	"encoding/csv"
	"os"
	"strconv"
	"strings"
	"testing"

	"stringoram/internal/stats"
)

// tinyScale keeps experiment tests fast while exercising the full paths.
func tinyScale() Scale {
	return Scale{Accesses: 250, TraceLen: 3000, Levels: 12, Seed: 11}
}

func TestFig4Analytic(t *testing.T) {
	tb := Fig4()
	if tb.Rows() != 4 {
		t.Fatalf("Fig4 rows = %d, want 4", tb.Rows())
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Headline numbers: Config-1 real 4 GB; Config-4 efficiency 35.56%.
	if !strings.Contains(out, "35.56%") {
		t.Errorf("Fig4 missing Config-4 efficiency 35.56%%:\n%s", out)
	}
	for _, want := range []string{"Config-1", "Config-4", "4.0000", "32.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig4 missing %q:\n%s", want, out)
		}
	}
}

func TestTableVAnalytic(t *testing.T) {
	tb := TableV()
	if tb.Rows() != 5 {
		t.Fatalf("TableV rows = %d, want 5", tb.Rows())
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"20.00", "12.00", "33.33%", "60.00%"} {
		if !strings.Contains(out, want) {
			t.Errorf("TableV missing %q:\n%s", want, out)
		}
	}
}

func TestSchemeApply(t *testing.T) {
	r := NewRunner(tinyScale())
	sys := r.Scale.system()
	if got := SchemeBaseline.Apply(sys, 8); got.ORAM.Y != 0 {
		t.Error("baseline has CB")
	}
	if got := SchemeCB.Apply(sys, 8); got.ORAM.Y != 8 {
		t.Error("CB lost rate")
	}
	if got := SchemePB.Apply(sys, 8); got.ORAM.Y != 0 || got.Scheduler.String() != "proactive-bank" {
		t.Error("PB wrong")
	}
	if got := SchemeAll.Apply(sys, 8); got.ORAM.Y != 8 || got.Scheduler.String() != "proactive-bank" {
		t.Error("ALL wrong")
	}
	for s := SchemeBaseline; s < numSchemes; s++ {
		if s.String() == "" {
			t.Error("empty scheme name")
		}
	}
}

// TestMatrixAndTimingFigures runs the shared matrix once at tiny scale
// and checks all matrix-derived figures for structural sanity and the
// paper's directional results.
func TestMatrixAndTimingFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	r := NewRunner(tinyScale())

	fig10, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if fig10.Rows() != 11 { // 10 workloads + AVG
		t.Fatalf("Fig10 rows = %d, want 11", fig10.Rows())
	}

	fig5b, err := r.Fig5b()
	if err != nil {
		t.Fatal(err)
	}
	if fig5b.Rows() != 11 {
		t.Fatalf("Fig5b rows = %d", fig5b.Rows())
	}

	fig11, err := r.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if fig11.Rows() != 11 {
		t.Fatalf("Fig11 rows = %d", fig11.Rows())
	}

	a, b, err := r.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows() != 11 || b.Rows() != 11 {
		t.Fatalf("Fig12 rows = %d/%d", a.Rows(), b.Rows())
	}

	// Directional checks on the averages, via the raw matrix.
	m, err := r.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	var worse int
	var cbs, pbs, alls []float64
	for name, row := range m {
		if row[SchemeAll].Cycles >= row[SchemeBaseline].Cycles {
			t.Logf("%s: ALL (%d) not below baseline (%d)", name, row[SchemeAll].Cycles, row[SchemeBaseline].Cycles)
			worse++
		}
		base := float64(row[SchemeBaseline].Cycles)
		cbs = append(cbs, float64(row[SchemeCB].Cycles)/base)
		pbs = append(pbs, float64(row[SchemePB].Cycles)/base)
		alls = append(alls, float64(row[SchemeAll].Cycles)/base)
	}
	if worse > 2 {
		t.Fatalf("ALL failed to beat baseline on %d/10 workloads", worse)
	}

	// The Fig. 10 headline as a number, not only a direction: each idea
	// wins alone, the two compose, and the combined cut lands in a band
	// around the paper's 0.70 (EXPERIMENTS.md records 0.659 at full scale).
	cb, pb, all := stats.Mean(cbs), stats.Mean(pbs), stats.Mean(alls)
	t.Logf("Fig. 10 AVG normalized execution time: CB %.3f, PB %.3f, ALL %.3f (paper 0.883, 0.811, 0.700)", cb, pb, all)
	if cb >= 1 || pb >= 1 {
		t.Errorf("CB (%.3f) and PB (%.3f) must each beat the baseline on average", cb, pb)
	}
	if all >= min(cb, pb) {
		t.Errorf("ALL (%.3f) must beat both CB (%.3f) and PB (%.3f): the two ideas compose", all, cb, pb)
	}
	if all < 0.58 || all > 0.78 {
		t.Errorf("ALL = %.3f outside [0.58, 0.78]; the paper reports 0.70", all)
	}
}

// TestFig14StashCrossover pins the crossover EXPERIMENTS.md quotes, at
// the smallest scale that shows it: without CB no stash size triggers a
// background eviction; at Y=8 a tiny stash does, fewer as the stash
// grows and none at 500, and the evictions cost the tiny stash part of
// CB's execution-time win.
func TestFig14StashCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	r := NewRunner(Quick())
	tb, err := r.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 20 { // 4 stash sizes x 5 CB configs
		t.Fatalf("Fig14 rows = %d, want 20", tb.Rows())
	}
	var buf bytes.Buffer
	if err := tb.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	num := func(cell string) float64 {
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	type point struct{ exec, bg float64 } // norm-exec, bg-evictions
	rows := make(map[[2]float64]point)    // (stash, Y) -> row
	for _, rec := range recs[1:] {
		rows[[2]float64{num(rec[0]), num(rec[1])}] = point{num(rec[2]), num(rec[3])}
	}
	at := func(stash, y float64) point { return rows[[2]float64{stash, y}] }

	stashes := []float64{20, 40, 200, 500}
	for i, stash := range stashes {
		if bg := at(stash, 0).bg; bg != 0 {
			t.Errorf("stash %v, Y=0: %v background evictions without CB, want 0", stash, bg)
		}
		if i == 0 {
			continue
		}
		if prev, cur := at(stashes[i-1], 8).bg, at(stash, 8).bg; cur > prev {
			t.Errorf("Y=8: stash %v triggers more background evictions (%v) than stash %v (%v)", stash, cur, stashes[i-1], prev)
		}
	}
	small, large := at(20, 8), at(500, 8)
	if small.bg == 0 || large.bg != 0 {
		t.Errorf("Y=8 background evictions: stash 20 = %v (want > 0), stash 500 = %v (want 0)", small.bg, large.bg)
	}
	if large.exec >= 1 || small.exec <= large.exec {
		t.Errorf("Y=8 normalized execution: stash 500 = %.4f (want < 1), stash 20 = %.4f (want above stash 500)", large.exec, small.exec)
	}
}

func TestFig15Series(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	r := NewRunner(tinyScale())
	tb, err := r.Fig15(200, 20)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() == 0 || tb.Rows() > 20 {
		t.Fatalf("Fig15 rows = %d, want (0, 20]", tb.Rows())
	}
}

func TestFig13Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	r := NewRunner(tinyScale())
	tb, err := r.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 5 {
		t.Fatalf("Fig13 rows = %d, want 5", tb.Rows())
	}
}

func TestAblationsTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	r := NewRunner(tinyScale())
	tb, err := r.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 5 {
		t.Fatalf("Ablations rows = %d, want 5", tb.Rows())
	}
}

func TestTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	r := NewRunner(tinyScale())
	s, err := r.Timeline(100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "transaction scheduler") || !strings.Contains(s, "proactive-bank scheduler") {
		t.Fatalf("timeline missing scheduler sections:\n%s", s)
	}
	// The PB rendering must actually show hoisted (lowercase) commands.
	pbPart := s[strings.Index(s, "proactive-bank"):]
	if !strings.ContainsAny(pbPart, "pa") {
		t.Fatalf("PB timeline shows no hoisted commands:\n%s", pbPart)
	}
	// The baseline must not.
	basePart := s[strings.Index(s, "transaction scheduler"):strings.Index(s, "proactive-bank")]
	if strings.Contains(basePart, " p") || strings.Contains(basePart, ".a") {
		t.Fatalf("baseline timeline shows hoisted commands:\n%s", basePart)
	}
	if !strings.Contains(s, "R") {
		t.Fatal("timeline shows no reads at all")
	}
}

func TestMixesTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	r := NewRunner(tinyScale())
	tb, err := r.Mixes()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 4 {
		t.Fatalf("Mixes rows = %d, want 4", tb.Rows())
	}
}

func TestProtocolsTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	r := NewRunner(tinyScale())
	tb, err := r.Protocols()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 3 {
		t.Fatalf("Protocols rows = %d, want 3", tb.Rows())
	}
}

func TestRenderFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	dir := t.TempDir()
	r := NewRunner(tinyScale())
	paths, err := r.RenderFigures(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 7 {
		t.Fatalf("rendered %d figures, want 7", len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("<svg")) || !bytes.HasSuffix(data, []byte("</svg>")) {
			t.Fatalf("%s is not a standalone SVG", p)
		}
	}
}

func TestHardwareTable(t *testing.T) {
	tb := Hardware(Full().System())
	if tb.Rows() != 8 {
		t.Fatalf("Hardware rows = %d, want 8", tb.Rows())
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"stash", "tree-top cache", "PB scheduler", "green counters", "-8.00 GB", "recursion"} {
		if !strings.Contains(out, want) {
			t.Errorf("hardware table missing %q:\n%s", want, out)
		}
	}
	// Y=0 must zero the green-counter row and the saving.
	noCB := Full().System().WithCBRate(0)
	var buf2 bytes.Buffer
	if err := Hardware(noCB).Render(&buf2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "log2(Y+1)=0") {
		t.Errorf("Y=0 hardware table still charges green counters:\n%s", buf2.String())
	}
}

func TestStashBound(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo in -short mode")
	}
	r := NewRunner(tinyScale())
	tb, err := r.StashBound(8, 400, []int{0, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() < 2 {
		t.Fatalf("StashBound rows = %d", tb.Rows())
	}
	// Defaulting behaviour.
	if _, err := r.StashBound(0, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthTable(t *testing.T) {
	tb, err := Bandwidth(400, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 7 { // path + 4 ring analytic + 2 measured
		t.Fatalf("Bandwidth rows = %d, want 7", tb.Rows())
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Path ORAM") {
		t.Fatal("bandwidth table missing Path ORAM row")
	}
}

func TestScales(t *testing.T) {
	for _, s := range []Scale{Quick(), Full()} {
		if s.Accesses <= 0 || s.TraceLen <= 0 {
			t.Fatalf("bad scale %+v", s)
		}
		if err := s.system().Validate(); err != nil {
			t.Fatalf("scale system invalid: %v", err)
		}
	}
}
