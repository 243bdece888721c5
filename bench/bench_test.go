package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sync"
	"testing"
	"time"
)

// These tests assert no timing: they run in tier-1 on any box and any
// GOMAXPROCS.

func TestQuantileAndTenBeyondRule(t *testing.T) {
	s := make([]uint32, 1000)
	for i := range s {
		s[i] = uint32(i+1) * 1000 // 1..1000 us
	}
	if got := quantileNs(s, 0.5); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := quantileNs(s, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := quantileNs(nil, 0.99); got != 0 {
		t.Errorf("p99 of nothing = %v, want 0", got)
	}
	// 1000 samples leave exactly ten beyond p99; 999 leave nine.
	if got := samplesBeyond(1000, 0.99); got != 10 {
		t.Errorf("samplesBeyond(1000, .99) = %d, want 10", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {999, 0.95}, {10000, 0.999}, {200, 0.95}, {199, 0.9}, {20, 0.5}, {19, 0}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestWindowEstimators(t *testing.T) {
	// Eleven windows: the best decile boundary is the second best.
	counts := []int64{50, 10, 20, 30, 40, 60, 70, 80, 90, 100, 110}
	if got := windowThroughput(counts, time.Second); got != 100 {
		t.Errorf("best-decile throughput = %v, want 100", got)
	}
	if got := windowThroughput(counts, 500*time.Millisecond); got != 200 {
		t.Errorf("half-second windows = %v, want 200", got)
	}
	if got := windowThroughput([]int64{7}, time.Second); got != 7 {
		t.Errorf("a single window: %v, want 7", got)
	}
	if got := windowThroughput([]float64{}, time.Second); got != 0 {
		t.Errorf("no windows = %v, want 0", got)
	}

	// Window i holds 100 samples of (i+1) us, so its every quantile is
	// i+1; a stall left the 1 us window with two samples, which is skipped.
	var per [][]uint32
	for i := 0; i < 11; i++ {
		win := make([]uint32, 100)
		if i == 0 {
			win = win[:2]
		}
		for j := range win {
			win[j] = uint32(i+1) * 1000
		}
		per = append(per, win)
	}
	if got := windowLatency(per, 0.99); got != 3 {
		t.Errorf("best-decile p99 = %v, want 3 (second best of the ten well-filled windows)", got)
	}
	if got := windowLatency(nil, 0.5); got != 0 {
		t.Errorf("no windows = %v, want 0", got)
	}

	// The cut window goes, unless it is all there is.
	zero := func(c int64) bool { return c == 0 }
	if got := fullWindows([]int64{5, 6, 1}, zero); !slices.Equal(got, []int64{5, 6}) {
		t.Errorf("fullWindows = %v, want the cut window dropped", got)
	}
	if got := fullWindows([]int64{0, 0, 1}, zero); len(got) != 3 {
		t.Errorf("fullWindows = %v, want the only non-empty window kept", got)
	}
	if got := fullWindows([]int64{}, zero); len(got) != 0 {
		t.Errorf("fullWindows of nothing = %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if got := spread(v); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
	if w := worsening(100, 90, "higher"); w != 0.1 {
		t.Errorf("throughput 100 -> 90 worsens by %v, want 0.1", w)
	}
	if w := worsening(100, 90, "lower"); w != -0.1 {
		t.Errorf("latency 100 -> 90 worsens by %v, want -0.1", w)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	// A root of 100 causing 30 and 50, the 50 causing 20, and a leaf
	// with ID 0 that causes nothing.
	self := selfTimes([]spanNode{
		{id: 1, dur: 100},
		{id: 2, parent: 1, dur: 30},
		{id: 3, parent: 1, dur: 50},
		{id: 4, parent: 3, dur: 20},
		{id: 0, parent: 3, dur: 5},
		{id: 5, parent: 9, dur: 7}, // its parent was never recorded
	})
	if want := []float64{20, 30, 25, 20, 5, 7}; !slices.Equal(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	// Children longer than the parent (clock domains differ): floor at 0.
	if self := selfTimes([]spanNode{{id: 1, dur: 10}, {id: 2, parent: 1, dur: 15}}); self[0] != 0 {
		t.Errorf("self time = %v, want 0", self[0])
	}

	// The ladder: op 0 takes 4us on the ring, 10 in the shard, 25 on the
	// wire; self times are the differences.
	rec := newSpanRecorder(true, "ring", "shard", "wire")
	us := time.Microsecond
	rec.add(0, 0, false, 0, 4*us)
	rec.add(1, 0, false, 100*us, 110*us)
	rec.add(2, 0, false, 200*us, 225*us)
	if got, want := rec.rungSelfUs(), []float64{4, 6, 15}; !slices.Equal(got, want) {
		t.Errorf("rung self times = %v, want %v", got, want)
	}
	flat := newSpanRecorder(false, "a", "b")
	flat.add(0, 0, false, 0, 4*us)
	flat.add(1, 0, false, 0, 10*us)
	if got, want := flat.rungSelfUs(), []float64{4, 10}; !slices.Equal(got, want) {
		t.Errorf("independent lanes = %v, want %v", got, want)
	}

	path, err := rec.write(t.TempDir(), "w")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3+3 {
		t.Errorf("trace file holds %d events, want 3 lane names + 3 spans", len(doc.TraceEvents))
	}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if n := len(bj.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in names.go, want 2..8 and equal", n, len(workloads))
	}
	for i, w := range bj.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), names.go has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	checkMetrics := func(kind string, got []contractMetric, want []metricDef, limit int, bounded bool) {
		t.Helper()
		if len(got) < 1 || len(got) > limit || len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in names.go, limit %d", kind, len(got), len(want), limit)
		}
		for i, m := range got {
			checkName(m.Name)
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, names.go has %+v", kind, i, m, d)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in names.go, want equal and in (0, 0.25]", m.Name, m.Bound, d.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	checkMetrics("end_to_end", bj.EndToEnd, endToEnd, 16, true)
	checkMetrics("per_layer", bj.PerLayer, perLayer, 128, false)
	if !slices.ContainsFunc(bj.EndToEnd, func(m contractMetric) bool {
		return m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}) {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", bj.RunSeconds, defaultSeconds)
	}
	if !slices.Equal(bj.Paths, []string{"bench"}) || !slices.Equal(bj.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("paths %v, command %v", bj.Paths, bj.Command)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
}

// faultyKV is a correct in-memory store with three planted faults: one
// write acknowledged and dropped, one stale read, one error.
type faultyKV struct {
	mu            sync.Mutex
	cur, prev     map[int][]byte
	gets, puts    int
	dropAt        int // the put with this number is acknowledged, not stored...
	dropKey       int // ...and so is every later put of its key, until a get has seen the loss
	dropping      bool
	staleAt       int // the first get from this number on whose key has an older version returns it
	errAt         int // the get with this number fails
	staled, erred bool
}

func (f *faultyKV) get(key int) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	if f.gets == f.errAt {
		f.erred = true
		return nil, errors.New("planted error")
	}
	if f.dropping && key == f.dropKey {
		f.dropping = false // the loss has been observed
		return f.cur[key], nil
	}
	if f.staleAt > 0 && f.gets >= f.staleAt && !f.staled && f.prev[key] != nil && !(key == f.dropKey && f.dropAt <= f.puts) {
		f.staled = true
		return f.prev[key], nil
	}
	return f.cur[key], nil
}

func (f *faultyKV) put(key int, val []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	if f.puts == f.dropAt {
		f.dropping, f.dropKey = true, key
	}
	if f.dropping && key == f.dropKey {
		return nil
	}
	f.prev[key] = f.cur[key]
	f.cur[key] = bytes.Clone(val)
	return nil
}

func TestOracleCountsEachFaultOnce(t *testing.T) {
	kv := &faultyKV{cur: map[int][]byte{}, prev: map[int][]byte{}, dropAt: 300, staleAt: 1000, errAt: 1800}
	o := newOracle(64)
	attempted, failed := preload(o, []target{kv}, 1, kvValueLen)
	if attempted != 64 || failed != 0 {
		t.Fatalf("preload: %d attempted, %d failed", attempted, failed)
	}
	ph := phase{name: "faults", seed: 1, targets: []target{kv}, workers: 1, maxOps: 4000, putPct: 50, valLen: kvValueLen, sampleCap: 16}
	res := ph.run(o)
	if kv.dropping || !kv.staled || !kv.erred {
		t.Fatalf("not every fault fired: dropping=%v staled=%v erred=%v", kv.dropping, kv.staled, kv.erred)
	}
	if res.ops != 4000 || res.failed != 3 {
		t.Errorf("%d ops, %d failed: want 4000 and exactly the 3 planted faults", res.ops, res.failed)
	}
	if len(res.all) != 16 {
		t.Errorf("%d samples kept, want the cap of 16", len(res.all))
	}

	// And none on a store without faults.
	clean := &faultyKV{cur: map[int][]byte{}, prev: map[int][]byte{}}
	o = newOracle(64)
	preload(o, []target{clean}, 4, kvValueLen)
	ph.workers, ph.targets = 4, []target{clean}
	if res := ph.run(o); res.failed != 0 || res.ops != 4*4000 {
		t.Errorf("clean store: %d ops, %d failed", res.ops, res.failed)
	}
}

func TestSeedFixesTheOpStream(t *testing.T) {
	stream := func(seed uint64, phase string) []byte {
		return appendOps(nil, newOpGen(seed, phase, 3, 8, 4096, 50, false), 5000)
	}
	a, b := stream(1, "sat"), stream(1, "sat")
	if !bytes.Equal(a, b) {
		t.Error("one seed gave two op streams")
	}
	if bytes.Equal(a, stream(2, "sat")) || bytes.Equal(a, stream(1, "serial")) {
		t.Error("another seed or phase gave the same op stream")
	}
	// Workers never share a key.
	owner := map[int]int{}
	for w := 0; w < 8; w++ {
		g := newOpGen(1, "sat", w, 8, 100, 50, w%2 == 0)
		for i := 0; i < 2000; i++ {
			key, _ := g.next()
			if key < 0 || key >= 100 {
				t.Fatalf("worker %d drew key %d of 100", w, key)
			}
			if prev, ok := owner[key]; ok && prev != w {
				t.Fatalf("key %d drawn by workers %d and %d", key, prev, w)
			}
			owner[key] = w
		}
	}
	if len(owner) != 100 {
		t.Errorf("%d of 100 keys were ever drawn", len(owner))
	}
}

func smokeCfg(t *testing.T, workload string, traced bool) runCfg {
	return runCfg{workload: workload, seed: 1, seconds: 0.25, trace: traced, smoke: true, outDir: t.TempDir(), log: io.Discard}
}

// TestExactCountsRepeat pins the claim behind every "exact" metric: two
// runs on one seed print the same value, and they are not all zero.
func TestExactCountsRepeat(t *testing.T) {
	for _, w := range []string{wRing, wSim} {
		a, err := run(smokeCfg(t, w, true))
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(smokeCfg(t, w, true))
		if err != nil {
			t.Fatal(err)
		}
		if !a.Correct || !b.Correct {
			t.Errorf("%s: a run was not correct (%d, %d failed)", w, a.Failed, b.Failed)
		}
		nonzero := 0
		for _, d := range perLayer {
			if !d.exact {
				continue
			}
			va, vb := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			if va != vb {
				t.Errorf("%s: %s = %v, then %v", w, d.name, va, vb)
			}
			if va != 0 {
				nonzero++
			}
		}
		if nonzero < 6 {
			t.Errorf("%s: only %d exact metrics are non-zero", w, nonzero)
		}
	}
}

// TestSeedReachesTheSimulator: another seed is another trace.
func TestSeedReachesTheSimulator(t *testing.T) {
	cycles := func(seed uint64) float64 {
		rc := smokeCfg(t, wSim, true)
		rc.seed, rc.seconds = seed, 0.01
		res, err := run(rc)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics["sim.cycles_all"].Value
	}
	if a, b := cycles(1), cycles(2); a == b || a == 0 {
		t.Errorf("seeds 1 and 2 simulated %v and %v cycles: the trace does not depend on the seed", a, b)
	}
}

// TestSmoke runs every workload end to end, in both modes, on small data.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && (w.name == wRing || w.name == wSim) {
				continue // TestExactCountsRepeat runs these
			}
			rc := smokeCfg(t, w.name, traced)
			res, err := run(rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if _, err := os.Stat(filepath.Join(rc.outDir, w.name+".trace.json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s: metric %s missing or in unit %q", w.name, d.name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

func TestResultRowRefusesADuplicateLabel(t *testing.T) {
	o := options{label: "pr13-test", results: t.TempDir(), rounds: 1}
	o.seed, o.seconds = 1, 12
	set := runSet{values: map[string]map[string][]float64{wRing: {"p50_us": {4, 5, 6}}}, attempted: 10}
	if err := checkLabel(o); err != nil {
		t.Fatal(err)
	}
	if err := writeRow(o, set); err != nil {
		t.Fatal(err)
	}
	if err := checkLabel(o); err == nil {
		t.Error("a used label passed the check")
	}
	if err := writeRow(o, set); err == nil {
		t.Error("a used label was written twice")
	}
	data, err := os.ReadFile(rowPath(o))
	if err != nil {
		t.Fatal(err)
	}
	var row resultRow
	if err := json.Unmarshal(data, &row); err != nil {
		t.Fatal(err)
	}
	m := row.Workloads[wRing]["p50_us"]
	if row.Label != o.label || row.GoVersion == "" || row.NumCPU < 1 || row.GOMAXPROCS < 1 || row.Commit == "" ||
		!slices.Equal(m.Rounds, []float64{4, 5, 6}) || m.Median != 5 || m.Unit != "us" {
		t.Errorf("row lacks its stamp or values: %+v", row)
	}
	o.label = "../escape"
	if err := checkLabel(o); err == nil {
		t.Error("a label with a path in it passed the check")
	}
}
