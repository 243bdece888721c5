// Package timingneg holds the patterns the oblivious analyzer's timing
// rules must accept: public-bounded work, exits with nothing left to
// observe, code that never reaches a temporal site, and justified
// escapes. Secret guards in emitting functions are also secret-branch
// findings; each carries its own allow.
package timingneg

import "time"

// Access is the configured emit type.
type Access struct {
	Addr uint64
}

type entry struct {
	Count int `oramlint:"secret"`
}

type Ctl struct {
	Accesses []Access
	pending  map[int]entry `oramlint:"secret"`
	work     chan int
	depth    int // public geometry, not secret
}

func (c *Ctl) emit(a uint64) {
	c.Accesses = append(c.Accesses, Access{Addr: a})
}

// fixedPad loops a public number of times: trip count is geometry, not
// secret.
func (c *Ctl) fixedPad() {
	for i := 0; i < c.depth; i++ {
		c.emit(uint64(i))
	}
}

// tailExit returns early under a secret guard, but nothing
// timing-observable follows — the exit cannot be distinguished from
// falling off the end.
func (c *Ctl) tailExit(id int) bool {
	c.emit(4)
	//oramlint:allow secret-branch the only emit precedes the guard; both arms return without another access
	if _, ok := c.pending[id]; !ok {
		return false
	}
	return true
}

// coldPath guards on the secret but never reaches an emitting or
// temporal site; the timing rules have no jurisdiction here.
func (c *Ctl) coldPath(id int) int {
	if e, ok := c.pending[id]; ok {
		return e.Count * 2
	}
	return 0
}

// publicSleep pads with a public, constant duration.
func (c *Ctl) publicSleep() {
	time.Sleep(time.Millisecond)
	c.emit(5)
}

// justifiedPark documents the forwarding park: the conflict ledger must
// stall dependent jobs, and the justification rides on the allow.
func (c *Ctl) justifiedPark(id int) {
	//oramlint:allow secret-branch both arms reach the same single emit below; the guard only decides the stall
	if _, ok := c.pending[id]; ok {
		//oramlint:allow secret-park forwarding stall is inherent to the conflict ledger; occupancy is not addressable by the bus adversary
		c.work <- id
	}
	c.emit(6)
}

// justifiedExit documents an admission-control early exit whose latency
// difference is already public (the caller sees the error).
func (c *Ctl) justifiedExit(id int) error {
	//oramlint:allow secret-branch duplicate-admission rejection is part of the public API contract
	if _, ok := c.pending[id]; ok {
		//oramlint:allow secret-early-exit duplicate-admission rejection is part of the public API contract
		return errBusy
	}
	c.emit(7)
	return nil
}

var errBusy = errorString("busy")

type errorString string

func (e errorString) Error() string { return string(e) }
