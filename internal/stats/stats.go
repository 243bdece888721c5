// Package stats provides the small result-presentation toolkit used by
// the experiment harness: fixed-width tables, CSV output, and numeric
// series helpers (mean, downsampling).
package stats

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// Table is a simple column-oriented results table. Every numeric cell
// keeps the number it was formatted from, so a chart plots a column of
// the table instead of computing the figure a second time.
type Table struct {
	Title   string
	Headers []string
	rows    []row
}

// row is one table row: its cells, the number behind each numeric cell
// (NaN elsewhere), and whether it summarizes the rows above it.
type row struct {
	cells   []string
	nums    []float64
	summary bool
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row of text cells; cells beyond the header count are
// dropped and missing cells are blank.
func (t *Table) AddRow(cells ...string) { t.add(cells, nil, false) }

// AddRowf appends a row of formatted values: strings pass through,
// float64 render with 4 significant digits, ints as integers.
func (t *Table) AddRowf(cells ...interface{}) { t.addf(cells, false) }

// AddSummaryRowf appends a row like AddRowf that summarizes the rows
// above it (an AVG or MEAN row); Labels and Column leave it out.
func (t *Table) AddSummaryRowf(cells ...interface{}) { t.addf(cells, true) }

func (t *Table) addf(cells []interface{}, summary bool) {
	out := make([]string, len(cells))
	nums := make([]float64, len(cells))
	for i, c := range cells {
		nums[i] = math.NaN()
		switch v := c.(type) {
		case string:
			out[i] = v
		case float64:
			out[i], nums[i] = FormatFloat(v), v
		case int:
			out[i], nums[i] = fmt.Sprintf("%d", v), float64(v)
		case int64:
			out[i], nums[i] = fmt.Sprintf("%d", v), float64(v)
		default:
			out[i] = fmt.Sprint(v)
		}
	}
	t.add(out, nums, summary)
}

func (t *Table) add(cells []string, nums []float64, summary bool) {
	r := row{cells: make([]string, len(t.Headers)), nums: make([]float64, len(t.Headers)), summary: summary}
	for i := range r.cells {
		r.nums[i] = math.NaN()
		if i < len(cells) {
			r.cells[i] = cells[i]
		}
		if i < len(nums) {
			r.nums[i] = nums[i]
		}
	}
	t.rows = append(t.rows, r)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Labels returns the first cell of every row but the summary rows.
func (t *Table) Labels() []string {
	var out []string
	for _, r := range t.rows {
		if !r.summary {
			out = append(out, r.cells[0])
		}
	}
	return out
}

// Column returns the numbers of the named column in every row but the
// summary rows. It fails if there is no such column or a cell in it is
// not a number.
func (t *Table) Column(name string) ([]float64, error) {
	col := slices.Index(t.Headers, name)
	if col < 0 {
		return nil, fmt.Errorf("stats: table %q has no column %q", t.Title, name)
	}
	var out []float64
	for _, r := range t.rows {
		if r.summary {
			continue
		}
		if math.IsNaN(r.nums[col]) {
			return nil, fmt.Errorf("stats: column %q holds %q, not a number, in row %q", name, r.cells[col], r.cells[0])
		}
		out = append(out, r.nums[col])
	}
	return out, nil
}

// Render writes the table as aligned fixed-width text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r.cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r.cells)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// RenderCSV writes the table as CSV (quote-free cells assumed; commas in
// cells are replaced by semicolons defensively).
func (t *Table) RenderCSV(w io.Writer) error {
	var sb strings.Builder
	clean := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	for i, h := range t.Headers {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(clean(h))
	}
	sb.WriteByte('\n')
	for _, r := range t.rows {
		for i, c := range r.cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(clean(c))
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// FormatFloat renders a float compactly with ~4 significant digits.
func FormatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Pct renders a ratio as a percentage string.
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// Mean returns the arithmetic mean (0 for empty input).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Downsample reduces a series to at most n points by averaging buckets,
// preserving the overall shape; it returns the (bucketCenter, mean) pairs.
func Downsample(vals []int, n int) (xs []int, ys []float64) {
	if n <= 0 || len(vals) == 0 {
		return nil, nil
	}
	if len(vals) <= n {
		xs = make([]int, len(vals))
		ys = make([]float64, len(vals))
		for i, v := range vals {
			xs[i] = i
			ys[i] = float64(v)
		}
		return xs, ys
	}
	bucket := (len(vals) + n - 1) / n
	for start := 0; start < len(vals); start += bucket {
		end := start + bucket
		if end > len(vals) {
			end = len(vals)
		}
		sum := 0
		for _, v := range vals[start:end] {
			sum += v
		}
		xs = append(xs, (start+end)/2)
		ys = append(ys, float64(sum)/float64(end-start))
	}
	return xs, ys
}
