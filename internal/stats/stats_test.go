package stats

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	tb.AddRowf("gamma", int64(12345))
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Demo", "name", "alpha", "2.5000", "12345", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if tb.Rows() != 3 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("x")                // short row
	tb.AddRow("1", "2", "3", "4") // long row: extra dropped
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "4") {
		t.Fatal("overflow cell not dropped")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "h1", "h2")
	tb.AddRow("a,b", "c")
	var buf bytes.Buffer
	if err := tb.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if lines[0] != "h1,h2" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "a;b,c" {
		t.Fatalf("row = %q (comma must be sanitized)", lines[1])
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1234.5:  "1234", // %.0f rounds half to even
		12.345:  "12.35",
		0.12345: "0.1235",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.3005); got != "30.05%" {
		t.Fatalf("Pct = %q", got)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("bad mean")
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}

func TestDownsample(t *testing.T) {
	vals := make([]int, 100)
	for i := range vals {
		vals[i] = i
	}
	xs, ys := Downsample(vals, 10)
	if len(xs) != 10 || len(ys) != 10 {
		t.Fatalf("downsampled to %d/%d points", len(xs), len(ys))
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] <= ys[i-1] {
			t.Fatal("monotone input lost monotonicity")
		}
	}
	// Short input passes through.
	xs, ys = Downsample([]int{5, 6}, 10)
	if len(xs) != 2 || ys[0] != 5 || ys[1] != 6 {
		t.Fatalf("short input mangled: %v %v", xs, ys)
	}
	if xs, ys := Downsample(nil, 10); xs != nil || ys != nil {
		t.Fatal("nil input must yield nil")
	}
}
