package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"time"
)

// A result row is everything needed to read a number later: what was
// measured, on what, every raw value. BENCH_*.json could not be read that
// way (three rows labelled pr9-treetop, rows with no commit), so a label
// names exactly one file and writing it twice is refused.

type resultRow struct {
	Label      string                          `json:"label"`
	Commit     string                          `json:"commit"`
	Time       string                          `json:"time"`
	GoVersion  string                          `json:"go_version"`
	NumCPU     int                             `json:"nproc"`
	GOMAXPROCS int                             `json:"gomaxprocs"`
	Seed       uint64                          `json:"seed"`
	Seconds    float64                         `json:"seconds"`
	Rounds     int                             `json:"rounds"`
	Traced     bool                            `json:"traced"`
	Attempted  int64                           `json:"attempted"`
	Failed     int64                           `json:"failed"`
	Workloads  map[string]map[string]metricRow `json:"workloads"`
}

type metricRow struct {
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

var labelRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func rowPath(o options) string { return filepath.Join(o.results, o.label+".json") }

// checkLabel refuses a malformed or already used label before any run is
// spent on it.
func checkLabel(o options) error {
	if o.label == "" {
		return nil
	}
	if !labelRE.MatchString(o.label) {
		return fmt.Errorf("label %q: want letters, digits, '_', '.', '-'", o.label)
	}
	if _, err := os.Stat(rowPath(o)); err == nil {
		return fmt.Errorf("label %q already has a row in %s: choose another, rows are never overwritten", o.label, rowPath(o))
	}
	return nil
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeRow stores the sets of one labelled run: one for a default run, the
// two of an A/A run, as one JSON document per line.
func writeRow(o options, sets ...runSet) error {
	if o.label == "" {
		return nil
	}
	var data []byte
	for _, set := range sets {
		line, err := json.Marshal(newRow(o, set))
		if err != nil {
			return err
		}
		data = append(append(data, line...), '\n')
	}
	if err := os.MkdirAll(o.results, 0o755); err != nil {
		return err
	}
	// O_EXCL: a label raced by two runs is still written once.
	f, err := os.OpenFile(rowPath(o), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", rowPath(o))
	return f.Close()
}

func newRow(o options, set runSet) resultRow {
	row := resultRow{
		Label: o.label, Commit: commit(), Time: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Rounds: o.rounds, Traced: o.trace,
		Attempted: set.attempted, Failed: set.failed,
		Workloads: make(map[string]map[string]metricRow),
	}
	for _, w := range workloads {
		row.Workloads[w.name] = make(map[string]metricRow)
		for _, d := range o.defs() {
			v := set.values[w.name][d.name]
			q1, q2, q3 := quartiles(v)
			row.Workloads[w.name][d.name] = metricRow{Unit: d.unit, Rounds: v, Q1: q1, Median: q2, Q3: q3}
		}
	}
	return row
}
