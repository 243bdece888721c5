package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRequiresExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), nil, &buf); err == nil {
		t.Fatal("no args accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	// There is no "verify" subcommand: go test ./... is the self-check.
	for _, name := range []string{"fig99", "verify"} {
		var buf bytes.Buffer
		if err := run(context.Background(), []string{name}, &buf); err == nil {
			t.Fatalf("unknown experiment %q accepted", name)
		}
	}
}

func TestRunUnknownScale(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"fig4", "-scale", "galactic"}, &buf); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestRunFig4(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"fig4"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Config-1", "Config-4", "35.56%"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 output missing %q", want)
		}
	}
}

func TestRunTableVCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"tablev", "-csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "config,Y,total-GB") {
		t.Fatalf("CSV header missing:\n%s", out)
	}
	if !strings.Contains(out, "Config-4,8,12.00") {
		t.Fatalf("CSV row missing:\n%s", out)
	}
}

func TestRunBandwidth(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"bandwidth", "-accesses", "200"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Path ORAM") {
		t.Fatal("bandwidth output missing Path ORAM")
	}
}

func TestRunSimulatedExperimentTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	var buf bytes.Buffer
	err := run(context.Background(), []string{"fig14", "-accesses", "60", "-levels", "10", "-seed", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bg-evictions") {
		t.Fatalf("fig14 output malformed:\n%s", buf.String())
	}
}

func TestRunFlagParseError(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"fig4", "-no-such-flag"}, &buf); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// tinyArgs shrinks simulated experiments so CLI tests stay fast.
func tinyArgs(exp string) []string {
	return []string{exp, "-accesses", "60", "-levels", "10", "-seed", "3"}
}

func TestRunSimulatedSubcommands(t *testing.T) {
	if testing.Short() {
		t.Skip("simulations in -short mode")
	}
	cases := map[string]string{
		"fig5b":     "read-path",
		"fig10":     "baseline",
		"fig11":     "read-CB",
		"fig13":     "green/read",
		"fig15":     "access#",
		"ablations": "flat layout",
		"timeline":  "proactive-bank",
	}
	for exp, want := range cases {
		t.Run(exp, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(context.Background(), tinyArgs(exp), &buf); err != nil {
				t.Fatalf("%s: %v", exp, err)
			}
			if !strings.Contains(buf.String(), want) {
				t.Fatalf("%s output missing %q:\n%s", exp, want, buf.String())
			}
		})
	}
}

func TestRunFig12BothTables(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	var buf bytes.Buffer
	if err := run(context.Background(), tinyArgs("fig12"), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "bank idle") || !strings.Contains(out, "early-PRE") {
		t.Fatalf("fig12 output incomplete:\n%s", out)
	}
}

// TestPlotHonoursStash checks that plot draws Fig. 15 from the same
// table fig15 prints, at the -stash it was given.
func TestPlotHonoursStash(t *testing.T) {
	if testing.Short() {
		t.Skip("simulations in -short mode")
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(context.Background(), append(tinyArgs("plot"), "-stash", "300", "-dir", dir), &buf); err != nil {
		t.Fatal(err)
	}
	svg, err := os.ReadFile(filepath.Join(dir, "fig15_stash.svg"))
	if err != nil {
		t.Fatal(err)
	}
	_, title, _ := strings.Cut(string(svg), `font-weight="bold">`)
	title, _, _ = strings.Cut(title, "</text>")
	if !strings.Contains(title, "stash size 300") {
		t.Fatalf("Fig. 15 chart title %q does not name stash 300", title)
	}
}

func TestRunSingleSubcommand(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	var buf bytes.Buffer
	err := run(context.Background(), []string{"run", "-levels", "10",
		"-accesses", "60", "-scheduler", "pb",
		"-layout", "flat", "-policy", "close", "-uniform", "-warm", "0.3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "execution cycles") {
		t.Fatalf("run output malformed:\n%s", buf.String())
	}
}

func TestHardwareSubcommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"hardware"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PB scheduler") {
		t.Fatalf("hardware output:\n%s", buf.String())
	}
}

func TestRunSingleRejections(t *testing.T) {
	cases := [][]string{
		{"run", "-scheduler", "bogus"},
		{"run", "-layout", "bogus"},
		{"run", "-policy", "bogus"},
		{"run", "-accesses", "0"},
		{"run", "-warm", "5"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunAllCancelled verifies that a pre-cancelled context (the state
// after SIGINT/SIGTERM) stops the "all" loop between experiments.
func TestRunAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := run(ctx, []string{"all"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "interrupted before") {
		t.Fatalf("cancelled all = %v, want interruption error", err)
	}
}

// TestRunSingleFlightRecorder runs with -flightrec and checks the dump
// is a well-formed Chrome trace document with cycle-stamped events.
func TestRunSingleFlightRecorder(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	out := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	err := run(context.Background(), []string{"run", "-levels", "10",
		"-accesses", "60", "-flightrec", out}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "flight recording:") {
		t.Fatalf("run output missing flight-recording line:\n%s", buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		OtherData       struct {
			TimeDomain string `json:"timeDomain"`
		} `json:"otherData"`
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("flight recording is not valid JSON: %v", err)
	}
	if doc.OtherData.TimeDomain != "cycles" {
		t.Fatalf("timeDomain = %q, want cycles (simulator events are never wall-clock)", doc.OtherData.TimeDomain)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("flight recording holds no events")
	}

	if err := run(context.Background(), []string{"run", "-levels", "10",
		"-accesses", "10", "-flightrec", out, "-flightrec-cap", "0"}, &buf); err == nil {
		t.Fatal("-flightrec-cap 0 accepted")
	}
}
