// Package ownpos exercises the scratch-ownership analyzer: pool-owned
// buffers escaping the access lifetime must be reported.
package ownpos

// frame is a pooled slot frame; buf aliases controller scratch.
type frame struct {
	buf []byte `oramlint:"scratch"`
}

// pool mixes tagged (sanctioned) and untagged destinations.
type pool struct {
	cur   frame
	out   chan []byte
	saved []byte
}

// table is package-level state that outlives every access.
var table [][]byte

// envelope has no scratch tag: wrapping a pooled buffer in it hides the
// alias.
type envelope struct {
	data []byte
}

// stash parks the pooled buffer in an untagged field.
func (p *pool) stash() {
	b := p.cur.buf
	p.saved = b // want scratch-store
}

// leakGlobal retains the pooled buffer in package-level state.
func (p *pool) leakGlobal() {
	table = append(table, p.cur.buf) // want scratch-store
}

// wrap hides the alias inside an untagged wrapper struct.
func (p *pool) wrap() envelope {
	return envelope{data: p.cur.buf} // want scratch-store
}

// send hands the alias to another goroutine over a channel.
func (p *pool) send() {
	p.out <- p.cur.buf // want scratch-send
}

func consume(b []byte) {
	_ = b
}

// spawn launches a goroutine on the live alias.
func (p *pool) spawn() {
	go consume(p.cur.buf) // want scratch-goroutine
}

// spawnCapture captures the alias in a goroutine closure.
func (p *pool) spawnCapture() {
	b := p.cur.buf
	go func() {
		consume(b) // want scratch-goroutine
	}()
}

// Lend returns the pooled buffer across the exported API boundary
// without documenting the copy-before-reuse contract.
func (p *pool) Lend() []byte {
	return p.cur.buf // want scratch-return
}

// LendVia shows the flow surviving a helper call: fetch returns its
// receiver's scratch, so the exported wrapper still leaks it.
func (p *pool) LendVia() []byte {
	b := p.fetch()
	return b // want scratch-return
}

func (p *pool) fetch() []byte {
	return p.cur.buf
}
