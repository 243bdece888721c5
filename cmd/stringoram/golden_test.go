package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tiny.golden from the current output")

// TestOutputGolden pins the text of every table "all" prints, plus
// hardware and stashbound, at the tiny scale of tinyArgs. A change to
// the harness that is not meant to move a number must leave it
// byte-identical. The completion line of "all" carries wall time and is
// cut. Regenerate with go test ./cmd/stringoram -run OutputGolden -update.
func TestOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulations in -short mode")
	}
	var buf bytes.Buffer
	for _, exp := range []string{"all", "hardware", "stashbound"} {
		if err := run(context.Background(), tinyArgs(exp), &buf); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if !strings.HasPrefix(line, "all experiments completed in") {
			got.WriteString(line)
		}
	}
	path := filepath.Join("testdata", "tiny.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("output differs from %s:\n%s", path, got.String())
	}
}
