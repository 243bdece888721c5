// Package timingpos exercises the oblivious analyzer's timing rules:
// secret-dependent sleeps, early exits, trip counts, and parks in
// timing-relevant code must be reported. A secret guard in a function
// that reaches an emit is a secret-branch finding as well.
package timingpos

import (
	"sync"
	"time"
)

// Access is the configured emit type.
type Access struct {
	Addr uint64
}

type entry struct {
	Count int `oramlint:"secret"`
}

// Ctl mixes public plumbing with secret-tagged state.
type Ctl struct {
	Accesses []Access
	pending  map[int]entry `oramlint:"secret"`
	work     chan int
	inflight sync.WaitGroup
	n        int `oramlint:"secret"`
}

func (c *Ctl) emit(a uint64) {
	c.Accesses = append(c.Accesses, Access{Addr: a})
}

// padSleep sleeps for a secret-derived duration.
func (c *Ctl) padSleep() {
	time.Sleep(time.Duration(c.n)) // want secret-sleep
	c.emit(1)
}

// guardSleep sleeps only when the secret counter is positive.
func (c *Ctl) guardSleep() {
	if c.n > 0 { // want secret-branch
		time.Sleep(time.Millisecond) // want secret-sleep
	}
	c.emit(2)
}

// lookup returns early on a miss in the secret pending table, skipping
// the emission below: response latency now says whether id was pending.
func (c *Ctl) lookup(id int) bool {
	if _, ok := c.pending[id]; !ok { // want secret-branch
		return false // want secret-early-exit
	}
	c.emit(3)
	return true
}

// flush iterates the secret pending table, emitting per entry.
func (c *Ctl) flush() {
	for id := range c.pending { // want secret-trip-count secret-branch
		c.emit(uint64(id))
	}
}

// pad loops a secret number of times around emission.
func (c *Ctl) pad() {
	for i := 0; i < c.n; i++ { // want secret-trip-count secret-branch
		c.emit(uint64(i))
	}
}

// hand sends on the work channel only for pending entries.
func (c *Ctl) hand(id int) {
	if e, ok := c.pending[id]; ok && e.Count > 0 {
		c.work <- id // want secret-park
	}
}

// maybePark waits out in-flight work only when the secret table holds id.
func (c *Ctl) maybePark(id int) {
	if _, ok := c.pending[id]; ok {
		c.inflight.Wait() // want secret-park
	}
}

// table is a generic keyed index shaped like oram's; the secret tag sits
// on the field that holds one.
type table[V comparable] struct {
	dense []V
}

func (t *table[V]) get(k int) V { return t.dense[k] }

// PosMap keeps secret paths in a tagged table.
type PosMap struct {
	paths table[int] `oramlint:"secret"`
}

// path hands the secret out through the generic method: the value is
// tainted because the receiver is the tagged field, though nothing inside
// table is tagged.
func (pm *PosMap) path(id int) int { return pm.paths.get(id) }

// lookupPath returns early on an unmapped id, skipping the emission.
func (c *Ctl) lookupPath(pm *PosMap, id int) {
	p := pm.path(id)
	if p == 0 { // want secret-branch
		return // want secret-early-exit
	}
	c.emit(uint64(id))
}
