// Command bench is the repository's benchmark: five workloads, the
// end-to-end metrics a client observes, and an outside-in per-layer ladder.
// README.md in this directory explains the design; BENCHMARK.json at the
// repository root is the contract a driver runs it by.
//
//	go run ./bench -workload node1-treetop -seed 1 -seconds 22 -trace 0
//
// measures one workload once and prints one JSON result as its last line.
// Without -workload every workload runs, in interleaved rounds, each run
// in a process of its own, and the medians and quartiles are printed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 22

type options struct {
	runCfg
	rounds   int
	aa       bool
	contract bool
	label    string
	results  string
}

func main() {
	var o options
	trace := 0
	flag.StringVar(&o.workload, "workload", "", "run this workload once and print the result line (empty: all workloads, in rounds)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input; 2 is the held-out seed a claim must also hold on")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics and a trace file per workload")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory the traced run writes <workload>.trace.json to")
	flag.BoolVar(&o.smoke, "smoke", false, "about a second per workload on shrunken data, both modes: does everything still run and verify?")
	flag.IntVar(&o.rounds, "rounds", 3, "rounds of all workloads when -workload is empty")
	flag.BoolVar(&o.aa, "aa", false, "run two full sets of the same build and compare them against the bounds")
	flag.BoolVar(&o.contract, "contract", false, "print BENCHMARK.json as names.go defines it (go run ./bench -contract > BENCHMARK.json)")
	flag.StringVar(&o.label, "label", "", "also store the rounds as <results>/<label>.json; an existing label is refused")
	flag.StringVar(&o.results, "results", "bench/results", "directory of stamped result rows")
	flag.Parse()
	o.trace = trace != 0
	o.log = os.Stdout
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	var err error
	switch {
	case o.contract:
		err = printContract()
	case o.smoke:
		err = smoke(o.runCfg)
	case o.workload != "":
		err = single(o.runCfg)
	case o.aa:
		err = aaMode(o)
	default:
		err = allMode(o)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

var errIncorrect = errors.New("operations failed, were refused or returned wrong values")

// single is the driver's entry: one workload, one run, one result line.
func single(rc runCfg) error {
	if !slices.ContainsFunc(workloads, func(w workloadDef) bool { return w.name == rc.workload }) {
		return fmt.Errorf("unknown workload %q", rc.workload)
	}
	if rc.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	res, err := run(rc)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// smoke runs every workload in both modes, in this process, on small data.
func smoke(rc runCfg) error {
	rc.smoke, rc.seconds = true, 1
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rc.workload, rc.trace = w.name, traced
			res, err := run(rc)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
			}
		}
	}
	fmt.Fprintln(rc.log, "smoke: all workloads ran and verified")
	return nil
}

// runSet is what rounds of runs produced: every raw value, by workload
// and metric.
type runSet struct {
	values            map[string]map[string][]float64
	attempted, failed int64
}

// execRun measures one workload in a process of its own, as a driver
// would, so that no run inherits another's heap or goroutines.
func execRun(rc runCfg) (runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	traced := "0"
	if rc.trace {
		traced = "1"
	}
	cmd := exec.Command(exe, "-workload", rc.workload, "-seed", strconv.FormatUint(rc.seed, 10),
		"-seconds", strconv.FormatFloat(rc.seconds, 'g', -1, 64), "-trace", traced, "-out", rc.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res runResult
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err != nil {
			return res, fmt.Errorf("%s: %w", rc.workload, err)
		}
		return res, fmt.Errorf("%s: no result line: %w", rc.workload, jerr)
	}
	return res, nil // a run that printed a result but failed operations is counted, not aborted
}

// measure runs rounds of every workload, interleaved (A B C, A B C, ...):
// host noise on this kind of box moves on a scale of minutes, and
// interleaving spreads it over the workloads instead of into one.
func measure(o options) (runSet, error) {
	set := runSet{values: make(map[string]map[string][]float64)}
	for round := 0; round < o.rounds; round++ {
		for _, w := range workloads {
			rc := o.runCfg
			rc.workload = w.name
			fmt.Fprintf(os.Stderr, "round %d/%d %s\n", round+1, o.rounds, w.name)
			res, err := execRun(rc)
			if err != nil {
				return set, err
			}
			set.attempted += res.Attempted
			set.failed += res.Failed
			if set.values[w.name] == nil {
				set.values[w.name] = make(map[string][]float64)
			}
			for name, m := range res.Metrics {
				set.values[w.name][name] = append(set.values[w.name][name], m.Value)
			}
		}
	}
	return set, nil
}

func (o options) defs() []metricDef {
	if o.trace {
		return perLayer
	}
	return endToEnd
}

func (s runSet) print(o options) {
	fmt.Printf("%-14s %-38s %-6s %14s %14s %14s  %s\n", "workload", "metric", "unit", "q1", "median", "q3", "rounds")
	for _, w := range workloads {
		for _, d := range o.defs() {
			v := s.values[w.name][d.name]
			q1, q2, q3 := quartiles(v)
			fmt.Printf("%-14s %-38s %-6s %14.4f %14.4f %14.4f  %v\n", w.name, d.name, d.unit, q1, q2, q3, v)
		}
	}
	fmt.Printf("fail_ratio %d/%d\n", s.failed, s.attempted)
}

func allMode(o options) error {
	if err := checkLabel(o); err != nil {
		return err
	}
	set, err := measure(o)
	if err != nil {
		return err
	}
	set.print(o)
	if err := writeRow(o, set); err != nil {
		return err
	}
	if set.failed != 0 {
		return errIncorrect
	}
	return nil
}

// aaMode is the evidence behind the bounds: two sets of runs of one build
// must agree within them. The exact per-layer counts must not differ at all.
func aaMode(o options) error {
	o.trace = false
	if err := checkLabel(o); err != nil {
		return err
	}
	var sets [2]runSet
	for i := range sets {
		var err error
		if sets[i], err = measure(o); err != nil {
			return err
		}
	}
	if err := writeRow(o, sets[0], sets[1]); err != nil {
		return err
	}
	misses := 0
	fmt.Printf("%-14s %-12s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "median A", "median B", "B worse", "spread", "bound", "")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0].values[w.name][d.name], sets[1].values[w.name][d.name]
			worse := worsening(median(a), median(b), d.better)
			verdict := "PASS"
			if worse > d.bound || -worse > d.bound {
				verdict = "UNRESOLVED"
				misses++
			}
			fmt.Printf("%-14s %-12s %14.4f %14.4f %8.1f%% %6.1f%% %6.1f%%  %s\n", w.name, d.name,
				median(a), median(b), worse*100, spread(append(a[:len(a):len(a)], b...))*100, d.bound*100, verdict)
		}
	}

	o.trace, o.rounds = true, 1
	var layers [2]runSet
	for i := range layers {
		var err error
		if layers[i], err = measure(o); err != nil {
			return err
		}
	}
	for _, w := range workloads {
		for _, d := range perLayer {
			a, b := layers[0].values[w.name][d.name], layers[1].values[w.name][d.name]
			if d.exact && (len(a) != 1 || len(b) != 1 || a[0] != b[0]) {
				fmt.Printf("%-14s %-38s %v != %v  NOT EXACT\n", w.name, d.name, a, b)
				misses++
			}
		}
	}
	failed := sets[0].failed + sets[1].failed + layers[0].failed + layers[1].failed
	fmt.Printf("exact per-layer counts compared; fail_ratio %d; %d misses\n", failed, misses)
	if misses > 0 || failed > 0 {
		return fmt.Errorf("A/A: %d misses, %d failed operations", misses, failed)
	}
	return nil
}
