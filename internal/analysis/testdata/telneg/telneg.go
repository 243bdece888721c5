// Package telneg exercises the telemetry analyzer's negative space:
// public values flowing into spans, events, metrics, and metric names
// are exactly what the observability plane is for.
package telneg

import "fmt"

type Span struct {
	Hi, Lo uint64
	TS     int64
	Arg0   int64
}

type Event struct {
	TS   int64
	Arg0 int64
}

type Recorder[T any] struct{ recs []T }

func (r *Recorder[T]) Emit(rec T) { r.recs = append(r.recs, rec) }

type Counter struct{ v uint64 }

func (c *Counter) Add(n uint64) { c.v += n }

type Gauge struct{ v int64 }

func (g *Gauge) Set(v int64) { g.v = v }

type Histogram struct{ sum float64 }

func (h *Histogram) Observe(v float64) { h.sum += v }

type Registry struct{ names []string }

func (r *Registry) Counter(name, help string) *Counter {
	r.names = append(r.names, name)
	return &Counter{}
}

func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.names = append(r.names, name)
}

// Ctl mixes secret state (never exported below) with public counters.
type Ctl struct {
	block    uint64 `oramlint:"secret"`
	accesses uint64
	queue    int64
	buf      *Recorder[Span]
	rec      *Recorder[Event]
	hits     *Counter
	depth    *Gauge
	lat      *Histogram
	reg      *Registry
}

// publicSpan records public timing only.
func (c *Ctl) publicSpan(ts, dur int64) {
	c.buf.Emit(Span{Hi: 1, Lo: 2, TS: ts, Arg0: dur})
}

// publicEvent records public queue state.
func (c *Ctl) publicEvent(ts int64) {
	c.rec.Emit(Event{TS: ts, Arg0: c.queue})
}

// publicMetrics publishes public counters and shard-indexed names.
func (c *Ctl) publicMetrics(shard int, lat float64) {
	c.hits.Add(c.accesses)
	c.depth.Set(c.queue)
	c.lat.Observe(lat)
	c.reg.Counter(fmt.Sprintf(`ops_total{shard="%d"}`, shard), "per-shard ops")
}

// touchSecret uses the secret for protocol work without exporting it.
func (c *Ctl) touchSecret() uint64 {
	return c.block % 7
}

// queueDepth reads public queue state.
func (c *Ctl) queueDepth() float64 { return float64(c.queue) }

// scrapeCallbacks publishes public state from scrape-time callbacks, as
// a func literal and as a method value.
func (c *Ctl) scrapeCallbacks() {
	c.reg.GaugeFunc("queue_depth", "public", func() float64 { return float64(c.queue) })
	c.reg.GaugeFunc("queue_depth_method", "public", c.queueDepth)
	c.reg.GaugeFunc("accesses", "public", func() float64 { return float64(c.accesses) })
}
