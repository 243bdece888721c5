// Package ownneg holds the sanctioned shapes the scratch-ownership
// analyzer must accept: tagged destinations, copies, param round-trips,
// and documented contracts.
package ownneg

// frame is a pooled slot frame; buf aliases controller scratch.
type frame struct {
	buf []byte `oramlint:"scratch"`
}

type pool struct {
	cur   frame
	spare frame
	saved []byte
}

// rotate moves scratch between tagged fields: both ends are inside the
// recycling contract.
func (p *pool) rotate() {
	p.spare.buf = p.cur.buf
}

// copyOut makes a fresh copy before parking it in an untagged field —
// append with ellipsis copies contents, laundering the alias.
func (p *pool) copyOut() {
	c := append([]byte(nil), p.cur.buf...)
	p.saved = c
}

// Fill returns the caller's own buffer: parameter round-trips are not
// scratch escapes.
func Fill(dst []byte) []byte {
	dst = append(dst, 0x5a)
	return dst
}

// Lend hands out the pooled buffer deliberately, with the contract
// spelled out on the allow.
func (p *pool) Lend() []byte {
	//oramlint:allow scratch-return result aliases pool scratch until the next access; callers copy first (documented API contract)
	return p.cur.buf
}

func consume(b []byte) {
	_ = b
}

// spawnCopy gives the goroutine its own copy of the buffer.
func (p *pool) spawnCopy() {
	c := append([]byte(nil), p.cur.buf...)
	go consume(c)
}
