package main

import (
	"encoding/json"
	"fmt"
)

// The names the benchmark can print. BENCHMARK.json lists the same sets
// (TestNamesMatchBenchmarkJSON); a metric exists only if it is here.

// Workload names, in the order a default run interleaves them.
const (
	wRing       = "ring-sealed"
	wNode       = "node1-treetop"
	wClusterGet = "cluster3-get"
	wClusterPut = "cluster3-put"
	wSim        = "sim-fig10"
)

type workloadDef struct {
	name string
	why  string
}

var workloads = []workloadDef{
	{wRing, "embedded sealed Ring, no server: oram.ring+crypt+store are ~100% of the work, so AES/store changes show here and serving changes must not"},
	{wNode, "1 node over loopback TCP, treetop cache on: server.wire+server.shard dominate and the data plane is a fraction; exercises wire, batching, queue, pipeline"},
	{wClusterGet, "3-node cluster through the router, 100% Get: router and wire without the replication hop; a replication change must leave this unchanged"},
	{wClusterPut, "same cluster, 100% Put: every op pays cluster.replicate's synchronous follower round trip; a replication change must move this one"},
	{wSim, "sim.Run of trace mummer under baseline, CB, PB, ALL (the paper's Fig. 10): the only workload reaching sim/sched/dram/trace/cpu/cache; bypasses all serving code"},
}

type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// exact: a count that repeats bit for bit on one seed, whatever the
	// host does; two runs of one build must print the same value.
	exact bool
}

// End-to-end metrics: every workload reports every one with -trace 0.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "heap_mb", unit: "MiB", better: "lower", bound: 0.05},
}

// Per-layer metrics: every workload reports every one with -trace 1; a
// layer the workload never executes reads 0.
var perLayer = []metricDef{
	{name: "oram.crypt.seal_ns", unit: "ns", better: "lower"},
	{name: "oram.crypt.open_ns", unit: "ns", better: "lower"},
	{name: "oram.crypt.us_per_access", unit: "us", better: "lower"},
	{name: "oram.store.reads_per_access", unit: "count", better: "lower", exact: true},
	{name: "oram.store.writes_per_access", unit: "count", better: "lower", exact: true},
	{name: "oram.store.read_ns", unit: "ns", better: "lower"},
	{name: "oram.store.write_ns", unit: "ns", better: "lower"},
	{name: "oram.store.us_per_access", unit: "us", better: "lower"},
	{name: "oram.store.bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "oram.ring.meta_us_per_access", unit: "us", better: "lower"},
	{name: "oram.ring.plain_us_per_access", unit: "us", better: "lower"},
	{name: "oram.ring.sealed_us_per_access", unit: "us", better: "lower"},
	{name: "oram.ring.move_us_per_access", unit: "us", better: "lower"},
	{name: "oram.ring.access_p50_us", unit: "us", better: "lower"},
	{name: "oram.ring.slots_per_access", unit: "count", better: "lower", exact: true},
	{name: "oram.ring.evicts_per_access", unit: "count", better: "lower", exact: true},
	{name: "oram.ring.reshuffles_per_access", unit: "count", better: "lower", exact: true},
	{name: "oram.ring.bg_dummies_per_access", unit: "count", better: "lower", exact: true},
	{name: "oram.ring.green_per_readpath", unit: "count", better: "higher", exact: true},
	{name: "oram.ring.stash_peak", unit: "count", better: "lower", exact: true},
	{name: "oram.treetop.cached_us_per_access", unit: "us", better: "lower"},
	{name: "oram.treetop.store_ops_saved_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "oram.pipeline.k1_ops_ratio", unit: "ratio", better: "higher"},
	{name: "oram.pipeline.k4_ops_ratio", unit: "ratio", better: "higher"},
	{name: "server.shard.inproc_get_p50_us", unit: "us", better: "lower"},
	{name: "server.shard.inproc_put_p50_us", unit: "us", better: "lower"},
	{name: "server.shard.handoff_us", unit: "us", better: "lower"},
	{name: "server.shard.avg_batch", unit: "count", better: "higher"},
	{name: "server.shard.rejected", unit: "count", better: "lower"},
	{name: "server.shard.expired", unit: "count", better: "lower"},
	{name: "server.shard.server_p99_us", unit: "us", better: "lower"},
	{name: "server.shard.skew_ops_ratio", unit: "ratio", better: "higher"},
	{name: "server.wire.ping_p50_us", unit: "us", better: "lower"},
	{name: "server.wire.ping_p99_us", unit: "us", better: "lower"},
	{name: "server.wire.rtt_us", unit: "us", better: "lower"},
	{name: "server.wire.bytes_per_op", unit: "B/op", better: "lower"},
	{name: "server.wire.conn_writes_per_op", unit: "1/op", better: "lower"},
	{name: "cluster.router.get_overhead_us", unit: "us", better: "lower"},
	{name: "cluster.replicate.put_minus_get_us", unit: "us", better: "lower"},
	{name: "cluster.replicate.span_p50_us", unit: "us", better: "lower"},
	{name: "cluster.replicate.apply_p50_us", unit: "us", better: "lower"},
	{name: "cluster.forward.hop_us", unit: "us", better: "lower"},
	{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "obs.spans_per_op", unit: "1/op", better: "lower"},
	{name: "span.client_get.self_us", unit: "us", better: "lower"},
	{name: "span.client_put.self_us", unit: "us", better: "lower"},
	{name: "span.serve_get.self_us", unit: "us", better: "lower"},
	{name: "span.serve_put.self_us", unit: "us", better: "lower"},
	{name: "span.serve_apply.self_us", unit: "us", better: "lower"},
	{name: "span.replicate.self_us", unit: "us", better: "lower"},
	{name: "span.forward.self_us", unit: "us", better: "lower"},
	{name: "sim.host_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "sim.cycles_baseline", unit: "count", better: "lower", exact: true},
	{name: "sim.cycles_all", unit: "count", better: "lower", exact: true},
	{name: "sim.cb_exec_norm", unit: "ratio", better: "lower", exact: true},
	{name: "sim.pb_exec_norm", unit: "ratio", better: "lower", exact: true},
	{name: "sim.all_exec_norm", unit: "ratio", better: "lower", exact: true},
	{name: "sched.readpath_conflict_rate", unit: "ratio", better: "lower", exact: true},
	{name: "sched.evict_conflict_rate", unit: "ratio", better: "lower", exact: true},
	{name: "sched.early_pre_frac", unit: "ratio", better: "higher", exact: true},
	{name: "sched.early_act_frac", unit: "ratio", better: "higher", exact: true},
	{name: "sched.read_queue_norm", unit: "ratio", better: "lower", exact: true},
	{name: "sched.write_queue_norm", unit: "ratio", better: "lower", exact: true},
	{name: "dram.bank_idle_baseline", unit: "ratio", better: "lower", exact: true},
	{name: "dram.bank_idle_pb", unit: "ratio", better: "lower", exact: true},
	{name: "trace.generate_ms", unit: "ms", better: "lower"},
	{name: "proc.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "proc.allocs_per_op", unit: "1/op", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "loadgen.get_p50_us", unit: "us", better: "lower"},
	{name: "loadgen.put_p50_us", unit: "us", better: "lower"},
	{name: "loadgen.p99_us", unit: "us", better: "lower"},
	{name: "loadgen.sat_get_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.sat_put_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.sat_p999_us", unit: "us", better: "lower"},
	{name: "loadgen.open_r25_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.open_r50_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.open_late_max_us", unit: "us", better: "lower"},
	{name: "e2e.residual_get_us", unit: "us", better: "lower"},
	{name: "e2e.residual_put_us", unit: "us", better: "lower"},
}

// metric is one printed value, in the shape the driver's result line wants.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values for one list of definitions; names not in the
// list are a bug, names never set read 0.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.vals[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not declared in names.go")
}

func (m *metricSet) get(name string) float64 { return m.vals[name] }

func (m *metricSet) json() map[string]metric {
	out := make(map[string]metric, len(m.defs))
	for _, d := range m.defs {
		out[d.name] = metric{Value: m.vals[d.name], Unit: d.unit}
	}
	return out
}

// contractMetric and contract are BENCHMARK.json's shape.
type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractMetric   `json:"per_layer"`
}

// printContract writes BENCHMARK.json as this file defines it, so the two
// have one source.
func printContract() error {
	c := contract{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		c.EndToEnd = append(c.EndToEnd, contractMetric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, contractMetric{d.name, d.unit, d.better, nil})
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}
