// Package cache implements the shared last-level cache that filters the
// CPU trace into ORAM requests: set-associative, write-back,
// write-allocate, with LRU replacement.
package cache

import (
	"fmt"
	"math/bits"

	"stringoram/internal/config"
)

// line is one cache line's tag state.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lastUse is a monotonically increasing use stamp for LRU.
	lastUse uint64
}

// Cache is a set-associative LLC. It is not safe for concurrent use.
type Cache struct {
	cfg config.Cache
	// slabs hold the sets touched so far, cfg.Ways lines each, setsPerSlab
	// sets to a slab, in the order of their first touch; slot[i] is 1 +
	// set i's position there, and 0 for a set never touched, whose lines
	// are all invalid. A run that stops after a few thousand misses
	// touches a fraction of a 4 MiB cache's sets, so sets get their lines
	// on first touch rather than all up front.
	slabs    [][]line
	slot     []int32
	nSets    int32 // sets given lines so far
	setShift uint
	setMask  uint64
	clock    uint64

	hits   int64
	misses int64
	wbacks int64
}

// New builds a cache from the configuration.
func New(cfg config.Cache) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:      cfg,
		slot:     make([]int32, sets),
		setShift: uint(bits.TrailingZeros64(uint64(cfg.LineSize))),
		setMask:  uint64(sets) - 1,
	}
	return c, nil
}

// setsPerSlab is the number of sets one slab of lines holds.
const setsPerSlab = 64

// set returns set i's lines, giving the set its lines on first touch.
func (c *Cache) set(i uint64) []line {
	pos := c.slot[i] - 1
	if pos < 0 {
		if c.nSets%setsPerSlab == 0 {
			c.slabs = append(c.slabs, make([]line, setsPerSlab*c.cfg.Ways))
		}
		pos = c.nSets
		c.nSets++
		c.slot[i] = pos + 1
	}
	off := int(pos%setsPerSlab) * c.cfg.Ways
	return c.slabs[pos/setsPerSlab][off : off+c.cfg.Ways : off+c.cfg.Ways]
}

// Result describes the outcome of one cache access.
type Result struct {
	Hit bool
	// Writeback reports that a dirty victim was evicted; its block
	// address (byte address of the line) is WritebackAddr.
	Writeback     bool
	WritebackAddr uint64
}

// Access performs a read or write of the line containing addr and returns
// the outcome. Misses allocate; dirty victims surface as writebacks for
// the caller to push to memory.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.clock++
	tag := addr >> c.setShift
	set := c.set(tag & c.setMask)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = c.clock
			if write {
				set[i].dirty = true
			}
			c.hits++
			return Result{Hit: true}
		}
	}
	c.misses++
	// Choose a victim: first invalid way, else LRU.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	var res Result
	if set[victim].valid && set[victim].dirty {
		res.Writeback = true
		res.WritebackAddr = set[victim].tag << c.setShift
		c.wbacks++
	}
	set[victim] = line{tag: tag, valid: true, dirty: write, lastUse: c.clock}
	return res
}

// Stats returns (hits, misses, writebacks).
func (c *Cache) Stats() (hits, misses, writebacks int64) {
	return c.hits, c.misses, c.wbacks
}

// HitRate returns the fraction of accesses that hit.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// String summarizes the geometry for diagnostics.
func (c *Cache) String() string {
	return fmt.Sprintf("cache{%dKB, %d-way, %dB lines, %d sets}",
		c.cfg.SizeBytes>>10, c.cfg.Ways, c.cfg.LineSize, c.setMask+1)
}
