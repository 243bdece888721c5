// Package stats provides the small result-presentation toolkit used by
// the experiment harness: fixed-width tables, CSV output, and numeric
// series helpers (mean, downsampling).
package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-oriented results table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped and
// missing cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values: strings pass through,
// float64 render with 4 significant digits, ints as integers.
func (t *Table) AddRowf(cells ...interface{}) {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			out[i] = v
		case float64:
			out[i] = FormatFloat(v)
		case int:
			out[i] = fmt.Sprintf("%d", v)
		case int64:
			out[i] = fmt.Sprintf("%d", v)
		default:
			out[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(out...)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Render writes the table as aligned fixed-width text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
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
	for _, row := range t.rows {
		line(row)
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
	for _, row := range t.rows {
		for i, c := range row {
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
