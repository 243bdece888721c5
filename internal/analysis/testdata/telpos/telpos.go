// Package telpos exercises the telemetry analyzer: secret-derived
// values reaching span payloads, recorder events, metric observations,
// or metric names must be reported.
package telpos

import "fmt"

// Span/Event/instrument stand-ins shaped like the obs API; the analyzer
// matches on receiver type name + method, so local doubles exercise it
// without importing the real package.

type Span struct {
	Hi, Lo uint64
	TS     int64
	Arg0   int64
}

type Event struct {
	TS   int64
	Arg0 int64
}

// Recorder is the one ring both record shapes ride on, as in obs.
type Recorder[T any] struct{ recs []T }

func (r *Recorder[T]) Emit(rec T) { r.recs = append(r.recs, rec) }

type Counter struct{ v uint64 }

func (c *Counter) Add(n uint64) { c.v += n }

type Gauge struct{ v int64 }

func (g *Gauge) Set(v int64) { g.v = v }
func (g *Gauge) Max(v int64) {
	if v > g.v {
		g.v = v
	}
}

type Histogram struct{ sum float64 }

func (h *Histogram) Observe(v float64) { h.sum += v }

type Registry struct{ names []string }

func (r *Registry) Counter(name, help string) *Counter {
	r.names = append(r.names, name)
	return &Counter{}
}

func (r *Registry) Gauge(name, help string) *Gauge {
	r.names = append(r.names, name)
	return &Gauge{}
}

func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.names = append(r.names, name)
}

func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.names = append(r.names, name)
}

// Ctl holds secret-tagged state feeding the sinks below.
type Ctl struct {
	block   uint64 `oramlint:"secret"`
	stashed int64  `oramlint:"secret"`
	buf     *Recorder[Span]
	rec     *Recorder[Event]
	hits    *Counter
	depth   *Gauge
	lat     *Histogram
	reg     *Registry
}

// spanPayload leaks the secret block ID through a span argument.
func (c *Ctl) spanPayload(ts int64) {
	c.buf.Emit(Span{Hi: c.block, TS: ts}) // want secret-telemetry
}

// eventPayload leaks secret stash state through a recorder event.
func (c *Ctl) eventPayload(ts int64) {
	c.rec.Emit(Event{TS: ts, Arg0: c.stashed}) // want secret-telemetry
}

// counterLeak publishes a secret-derived count.
func (c *Ctl) counterLeak() {
	c.hits.Add(c.block) // want secret-telemetry
}

// gaugeLeak publishes secret stash occupancy.
func (c *Ctl) gaugeLeak() {
	c.depth.Set(c.stashed) // want secret-telemetry
	c.depth.Max(c.stashed) // want secret-telemetry
}

// histLeak observes a secret-derived sample.
func (c *Ctl) histLeak() {
	c.lat.Observe(float64(c.block)) // want secret-telemetry
}

// metricName bakes a secret into a series name, published by every
// scrape.
func (c *Ctl) metricName() {
	c.reg.Counter(fmt.Sprintf("block_%d_total", c.block), "leaky") // want secret-metric-name
}

// derived leaks through a local derived from the secret, not the field
// itself.
func (c *Ctl) derived(ts int64) {
	id := c.block * 2
	c.buf.Emit(Span{Lo: id, TS: ts}) // want secret-telemetry
}

// stashLen hands out the secret stash occupancy.
func (c *Ctl) stashLen() int64 { return c.stashed }

// scrapeCallback publishes secret stash occupancy from scrape-time
// callbacks: func literals reading it directly or through a call, and a
// method value returning it.
func (c *Ctl) scrapeCallback() {
	c.reg.GaugeFunc("stash_blocks", "leaky", func() float64 { return float64(c.stashed) }) // want secret-telemetry
	c.reg.CounterFunc("stash_total", "leaky", func() float64 {                             // want secret-telemetry
		n := c.stashLen()
		return float64(n)
	})
	c.reg.GaugeFunc("stash_frac", "leaky", c.stashFrac) // want secret-telemetry
}

func (c *Ctl) stashFrac() float64 { return float64(c.stashed) / 8 }
