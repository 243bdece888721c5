package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"stringoram/internal/atomicfile"
	"stringoram/internal/plot"
	"stringoram/internal/stats"
)

// RenderFigures writes the paper's charted figures as standalone SVG
// files into dir (created if absent) and returns the written paths. Each
// chart plots columns of the table its subcommand prints, leaving out
// the summary rows; stash is Fig. 15's stash size.
func (r *Runner) RenderFigures(dir string, stash int) ([]string, error) {
	fig4 := func() (*stats.Table, error) { return Fig4(), nil }
	fig12a := func() (*stats.Table, error) { a, _, err := r.Fig12(); return a, err }
	fig12b := func() (*stats.Table, error) { _, b, err := r.Fig12(); return b, err }
	fig15 := func() (*stats.Table, error) { return r.Fig15(stash, Fig15Points) }
	charts := []struct {
		file   string
		kind   plot.Kind
		yLabel string
		yMax   float64 // 0 auto-scales
		table  func() (*stats.Table, error)
		cols   string
	}{
		{"fig4_space.svg", plot.Bars, "capacity (GB)", 0, fig4, "real-GB dummy-GB"},
		{"fig5b_conflicts.svg", plot.Bars, "conflict rate", 1, r.Fig5b, "read-path eviction"},
		{"fig10_exectime.svg", plot.Bars, "normalized time", 1.1, r.Fig10, "baseline CB PB ALL"},
		{"fig11_queuing.svg", plot.Bars, "normalized queued cycles", 1.1, r.Fig11,
			"read-CB read-PB read-ALL write-CB write-PB write-ALL"},
		{"fig12a_idle.svg", plot.Bars, "bank idle proportion", 1, fig12a, "baseline PB"},
		{"fig12b_early.svg", plot.Bars, "proportion issued early", 1, fig12b, "early-PRE early-ACT"},
		{"fig13_cb_sensitivity.svg", plot.Lines, "normalized time / greens per read", 0, r.Fig13,
			"CB-exec ALL-exec green/read"},
		{"fig15_stash.svg", plot.Lines, "stash blocks", 0, fig15, "Y=0 Y=2 Y=4 Y=6 Y=8"},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	for _, ch := range charts {
		t, err := ch.table()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ch.file, err)
		}
		// The chart carries the table's title without the paper's
		// quoted numbers, which would not fit the canvas.
		title, _, _ := strings.Cut(t.Title, " (paper")
		c := &plot.Chart{Title: title, YLabel: ch.yLabel, XTicks: t.Labels(), Kind: ch.kind, YMax: ch.yMax}
		for _, col := range strings.Fields(ch.cols) {
			vals, err := t.Column(col)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", ch.file, err)
			}
			c.Series = append(c.Series, plot.Series{Name: col, Values: vals})
		}
		svg, err := c.SVG()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ch.file, err)
		}
		path := filepath.Join(dir, ch.file)
		if err := writeFileAtomic(path, svg); err != nil {
			return nil, err
		}
		written = append(written, path)
	}
	return written, nil
}

// writeFileAtomic writes data to path with atomicfile.Write, so an
// interrupted render (e.g. SIGINT during plot) leaves either the
// previous file or the complete new one, never a truncated SVG.
func writeFileAtomic(path string, data []byte) error {
	return atomicfile.Write(path, filepath.Base(path)+".tmp-*", 0o644, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
