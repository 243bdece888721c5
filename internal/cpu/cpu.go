// Package cpu models the trace-driven processor front end of the
// simulated CMP (paper Table I): out-of-order cores that retire
// instructions at a fixed width and tolerate a bounded number of
// outstanding memory misses (the ROB/MSHR limit) before stalling.
//
// The model runs in the memory-controller clock domain: one tick is one
// memory cycle, during which a core retires RetireWidth x CPUClockMul
// instructions if it is not stalled. This is deliberately simple — with
// ORAM serializing every miss into a multi-hundred-cycle transaction,
// request arrival pressure (MPKI, burstiness, miss-level parallelism) is
// what the memory system observes, and that is exactly what the model
// reproduces.
package cpu

import (
	"fmt"

	"stringoram/internal/config"
	"stringoram/internal/trace"
)

// Access is a memory access emitted by a core.
type Access struct {
	Core  int
	Addr  uint64
	Write bool
}

// Core is one trace-driven processor core.
type Core struct {
	id   int
	recs []trace.Record
	pos  int

	gapLeft       int64 // instructions still to retire before the next access
	retirePerTick int64
	maxMisses     int

	outstanding int
	retired     int64
}

// NewCore builds a core over its trace shard.
func NewCore(id int, recs []trace.Record, cfg config.CPU, clockMul int) *Core {
	c := &Core{
		id:            id,
		recs:          recs,
		retirePerTick: int64(cfg.RetireWidth) * int64(clockMul),
		maxMisses:     cfg.MaxMisses,
	}
	if len(recs) > 0 {
		c.gapLeft = int64(recs[0].Gap)
	}
	return c
}

// Done reports whether the core has consumed its whole trace.
func (c *Core) Done() bool { return c.pos >= len(c.recs) }

// Blocked reports whether the core is stalled on outstanding misses.
func (c *Core) Blocked() bool { return c.outstanding >= c.maxMisses }

// Outstanding returns the in-flight miss count.
func (c *Core) Outstanding() int { return c.outstanding }

// Retired returns the number of instructions retired so far.
func (c *Core) Retired() int64 { return c.retired }

// Complete signals that one outstanding miss returned.
func (c *Core) Complete() {
	if c.outstanding == 0 {
		panic(fmt.Sprintf("cpu: core %d completion with no outstanding misses", c.id))
	}
	c.outstanding--
}

// Tick advances the core by one memory cycle and returns the memory
// accesses it emits (possibly several when gaps are shorter than the
// per-tick retire budget, possibly none).
func (c *Core) Tick() []Access {
	if c.Done() || c.Blocked() {
		return nil
	}
	budget := c.retirePerTick
	var out []Access
	for budget > 0 && !c.Done() && !c.Blocked() {
		if c.gapLeft > 0 {
			n := c.gapLeft
			if n > budget {
				n = budget
			}
			c.gapLeft -= n
			budget -= n
			c.retired += n
			continue
		}
		// The access instruction itself retires...
		rec := c.recs[c.pos]
		c.pos++
		c.retired++
		budget--
		// ...and its miss goes outstanding. Writes drain through a
		// write buffer but still occupy an MSHR until serviced, so
		// both directions count against the miss budget.
		c.outstanding++
		out = append(out, Access{Core: c.id, Addr: rec.Addr, Write: rec.Write})
		if !c.Done() {
			c.gapLeft = int64(c.recs[c.pos].Gap)
		}
	}
	return out
}

// Cluster is the set of cores sharing the LLC and ORAM controller.
type Cluster struct {
	Cores []*Core
}

// NewCluster shards a trace round-robin across cfg.Cores cores, mirroring
// a multiprogrammed run of the same application.
func NewCluster(tr *trace.Trace, cfg config.CPU, clockMul int) *Cluster {
	shards := make([][]trace.Record, cfg.Cores)
	for i, r := range tr.Records {
		shards[i%cfg.Cores] = append(shards[i%cfg.Cores], r)
	}
	cl := &Cluster{}
	for i := 0; i < cfg.Cores; i++ {
		cl.Cores = append(cl.Cores, NewCore(i, shards[i], cfg, clockMul))
	}
	return cl
}

// NewClusterMulti runs one distinct trace per core (a heterogeneous
// multiprogrammed mix). When fewer traces than cores are given, traces
// repeat round-robin; extra traces beyond the core count are ignored.
func NewClusterMulti(trs []*trace.Trace, cfg config.CPU, clockMul int) *Cluster {
	if len(trs) == 0 {
		panic("cpu: NewClusterMulti needs at least one trace")
	}
	cl := &Cluster{}
	for i := 0; i < cfg.Cores; i++ {
		cl.Cores = append(cl.Cores, NewCore(i, trs[i%len(trs)].Records, cfg, clockMul))
	}
	return cl
}

// Done reports whether every core has consumed its trace.
func (cl *Cluster) Done() bool {
	for _, c := range cl.Cores {
		if !c.Done() {
			return false
		}
	}
	return true
}

// Active reports whether any core could make progress this tick (not
// done and not blocked).
func (cl *Cluster) Active() bool {
	for _, c := range cl.Cores {
		if !c.Done() && !c.Blocked() {
			return true
		}
	}
	return false
}

// Outstanding returns the total in-flight misses across cores.
func (cl *Cluster) Outstanding() int {
	n := 0
	for _, c := range cl.Cores {
		n += c.Outstanding()
	}
	return n
}

// Retired returns the total instructions retired across cores.
func (cl *Cluster) Retired() int64 {
	var n int64
	for _, c := range cl.Cores {
		n += c.Retired()
	}
	return n
}

// Tick advances every core one memory cycle and gathers their accesses.
func (cl *Cluster) Tick() []Access {
	var out []Access
	for _, c := range cl.Cores {
		out = append(out, c.Tick()...)
	}
	return out
}
