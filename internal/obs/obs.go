// Package obs is the repo's zero-allocation telemetry layer: a named
// instrument registry (counters, gauges, fixed-bucket histograms) with
// Prometheus text exposition, and one fixed ring (Recorder, see
// flightrec.go) that holds either flight-recorder events or
// distributed-trace spans, with Chrome trace-event export loadable in
// Perfetto.
//
// The package is stdlib-only and designed around two hard constraints
// inherited from the data plane and the simulator:
//
//   - Zero allocation on the hot path. Updating an instrument is one
//     atomic operation. Every update method has a nil receiver fast
//     path, and the Registry constructor methods return nil on a nil
//     Registry, so a component instrumented against a nil registry
//     compiles its telemetry down to inlined nil checks.
//   - Domain timestamps, never wall clock. The package itself reads no
//     clock; flight-recorder events carry whatever int64 timestamp the
//     caller supplies (DRAM cycles in the simulator, logical access
//     ordinals in the protocol layer), and spans the server's
//     microseconds since start. This keeps obs compatible with the
//     repo's seed-only determinism discipline (cmd/oramlint runs the
//     determinism analyzer over this package).
//
// Concurrency: instruments are safe from any goroutine. Func instruments
// (CounterFunc/GaugeFunc) invoke their callback at scrape time; callers
// registering one must hand in a function that is safe to call from the
// scraping goroutine (e.g. len of a channel, or an atomic load).
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 instrument. The zero
// value is ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 instrument. The zero value is ready to
// use; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Max raises the gauge to v if v exceeds the current value.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counters.
// Bucket bounds are set at registration and never change, so Observe is
// a bounded scan, one atomic add and a CAS-accumulated sum — no
// allocation, no locks. A nil *Histogram is a no-op.
//
// The bucket counters are the only record of how many observations were
// made: every reader (Count, the exposition's _count line, SLO windows,
// quantiles) derives the total by summing one pass over them, so a total
// can never disagree with the buckets it was read beside.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// AddCounts adds the per-bucket counts (one per bound plus the trailing
// +Inf bucket), each read exactly once, into dst and returns their sum —
// the number of observations in that read. dst must have len(bounds)+1
// entries; passing the same dst for several histograms with equal bounds
// merges them.
func (h *Histogram) AddCounts(dst []uint64) uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		dst[i] += c
		total += c
	}
	return total
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observations
// counted in counts, the per-bucket counts over bounds as AddCounts fills
// them. The estimate interpolates linearly inside the bucket holding the
// rank-q observation (the first bucket's lower edge is 0), so it lies
// within that bucket: off by at most the ratio of adjacent bounds, and
// exact when the rank falls on a bucket's last observation. Observations
// above the last bound report that bound. No observations report 0.
func Quantile(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range counts {
		if c == 0 || float64(cum+c) < rank {
			cum += c
			continue
		}
		if i == len(bounds) {
			break
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		return lo + (bounds[i]-lo)*(rank-float64(cum))/float64(c)
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// ExpBuckets returns n log-scale bucket bounds: start, start*factor,
// start*factor^2, ... — the standard shape for latency and cycle-count
// histograms whose values span orders of magnitude.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic(fmt.Sprintf("obs: invalid ExpBuckets(%g, %g, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// instrument kinds for exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one registered time series: an instrument plus its label
// block (the text between { and } in the registered name, possibly
// empty). Func-backed series store fn instead of inst.
type series struct {
	labels string
	inst   any
	fn     func() float64
}

// family groups the series sharing one metric name; HELP and TYPE are
// per family.
type family struct {
	name   string
	help   string
	kind   string
	series map[string]*series // keyed by label block
}

// Registry holds named instruments and renders them in Prometheus text
// exposition format. A nil *Registry is the disabled state: every
// constructor returns nil and the returned instruments are no-ops.
//
// Registration is not a hot path (it locks and allocates); updates to
// the returned instruments are lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// splitSeries separates a registered name into family name and label
// block: "foo_total{shard=\"0\"}" -> ("foo_total", "shard=\"0\"").
func splitSeries(name string) (fam, labels string, err error) {
	fam = name
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			if name[len(name)-1] != '}' {
				return "", "", fmt.Errorf("obs: malformed series name %q", name)
			}
			fam, labels = name[:i], name[i+1:len(name)-1]
			break
		}
	}
	if fam == "" {
		return "", "", fmt.Errorf("obs: empty metric name in %q", name)
	}
	for i := 0; i < len(fam); i++ {
		c := fam[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return "", "", fmt.Errorf("obs: invalid metric name %q", fam)
		}
	}
	return fam, labels, nil
}

// register resolves (or creates) the series for name, enforcing
// one-kind-per-family. build constructs the instrument on first
// registration; an existing series of the same kind is returned as-is,
// so registration is idempotent (two shards may register the same
// labelled family, and re-instrumenting a component is harmless).
func (r *Registry) register(name, help, kind string, build func() any) any {
	fam, labels, err := splitSeries(name)
	if err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[fam]
	if f == nil {
		f = &family{name: fam, help: help, kind: kind, series: make(map[string]*series)}
		r.families[fam] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", fam, f.kind, kind))
	}
	if s := f.series[labels]; s != nil {
		if s.fn != nil {
			return s.fn
		}
		return s.inst
	}
	inst := build()
	s := &series{labels: labels}
	if fn, ok := inst.(func() float64); ok {
		s.fn = fn
	} else {
		s.inst = inst
	}
	f.series[labels] = s
	return inst
}

// Counter registers (or finds) a counter series. name may carry a label
// block: `server_requests_total{shard="0",op="get"}`. Returns nil on a nil
// registry, making the counter a no-op.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, func() any { return new(Counter) }).(*Counter)
}

// Gauge registers (or finds) a gauge series. Returns nil on a nil
// registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram registers (or finds) a histogram series with the given
// ascending bucket bounds (the +Inf bucket is implicit). Returns nil on
// a nil registry.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending: %v", name, bounds))
		}
	}
	return r.register(name, help, kindHistogram, func() any {
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Uint64, len(bounds)+1)
		return h
	}).(*Histogram)
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — for mirroring counters a single-owner component already
// maintains (e.g. simulator Stats structs) without touching its hot
// path. fn must be monotone and safe to call from the scraping
// goroutine. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, kindCounter, func() any { return fn })
}

// GaugeFunc registers a gauge series read from fn at scrape time. fn
// must be safe to call from the scraping goroutine. No-op on a nil
// registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, kindGauge, func() any { return fn })
}

// snapshotFamilies returns the families sorted by name, each with its
// series sorted by label block — the deterministic exposition order.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*family, 0, len(names))
	for _, name := range names {
		out = append(out, r.families[name])
	}
	return out
}

// sortedSeries returns one family's series in label order.
func (f *family) sortedSeries() []*series {
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, 0, len(keys))
	for _, k := range keys {
		out = append(out, f.series[k])
	}
	return out
}
