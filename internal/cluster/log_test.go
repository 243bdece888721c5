package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"stringoram/internal/invariant"
	"stringoram/internal/obs"
	"stringoram/internal/server"
)

func TestLogAppendAndEncode(t *testing.T) {
	l := NewLog(8)
	if first, last := l.Bounds(); first != 0 || last != 0 {
		t.Fatalf("empty bounds = [%d,%d], want [0,0]", first, last)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		l.Append(seq, fmt.Sprintf("k%d", seq), []byte(fmt.Sprintf("v%d", seq)))
	}
	if first, last := l.Bounds(); first != 1 || last != 5 {
		t.Fatalf("bounds = [%d,%d], want [1,5]", first, last)
	}
	var f server.ReplicateFrame
	f.Reset(1, 0)
	last, err := l.Encode(&f, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if last != 5 || f.Len() != 3 {
		t.Fatalf("Encode(2,5] = last %d, frame of %d; want 3 entries ending at 5", last, f.Len())
	}
	// Empty range is fine.
	f.Reset(1, 0)
	if last, err := l.Encode(&f, 4, 4); err != nil || last != 4 || f.Len() != 0 {
		t.Fatalf("Encode(4,4] = %d, %v with %d entries", last, err, f.Len())
	}
}

// TestLogEncodeStopsAtFullFrame: a run too large for one frame is
// encoded up to the frame's bound, and the caller ships the rest in the
// next frame.
func TestLogEncodeStopsAtFullFrame(t *testing.T) {
	l := NewLog(8)
	big := make([]byte, 400<<10)
	for seq := uint64(1); seq <= 5; seq++ {
		l.Append(seq, "k", big)
	}
	var f server.ReplicateFrame
	for from, frames := uint64(0), 0; from < 5; frames++ {
		f.Reset(1, 0)
		last, err := l.Encode(&f, from, 5)
		if err != nil {
			t.Fatal(err)
		}
		if f.Len() != 2 && last != 5 {
			t.Fatalf("frame %d carries %d entries of 400 KiB, want 2 (a frame is 1 MiB)", frames, f.Len())
		}
		from = last
	}
}

func TestLogWrapTrimsOldEntries(t *testing.T) {
	l := NewLog(4)
	for seq := uint64(1); seq <= 10; seq++ {
		l.Append(seq, "k", []byte("v"))
	}
	first, last := l.Bounds()
	if first != 7 || last != 10 {
		t.Fatalf("bounds after wrap = [%d,%d], want [7,10]", first, last)
	}
	var f server.ReplicateFrame
	f.Reset(1, 0)
	if _, err := l.Encode(&f, 4, 10); !errors.Is(err, ErrLogTrimmed) {
		t.Fatalf("Encode past trim err = %v, want ErrLogTrimmed", err)
	}
	if last, err := l.Encode(&f, 6, 10); err != nil || last != 10 || f.Len() != 4 {
		t.Fatalf("Encode(6,10] = %d err=%v with %d entries, want 4 ending at 10", last, err, f.Len())
	}
	// The retry fallback: beyond the resident window the caller must
	// restream a snapshot, never read overwritten slots.
	f.Reset(1, 0)
	if _, err := l.Encode(&f, 0, 10); !errors.Is(err, ErrLogTrimmed) {
		t.Fatalf("Encode from 0 err = %v, want ErrLogTrimmed", err)
	}
}

// TestAllocFreeLogAppend pins the zero-alloc apply contract: once the
// log has warmed to the workload's largest key/value sizes, Append must
// not allocate, also when entries vary in size and the byte FIFO
// compacts under them.
func TestAllocFreeLogAppend(t *testing.T) {
	const logCap = 64
	l := NewLog(logCap)
	keys := []string{"k", "warm-key", "warm-key-0123"}
	val := []byte("warm-value-0123456789")
	var seq uint64
	for i := 0; i < 4*logCap; i++ { // fill, then wrap the buffer at the largest sizes
		seq++
		l.Append(seq, keys[len(keys)-1], val)
	}
	warm, compactions := l.footprint(), 0
	allocs := testing.AllocsPerRun(16*logCap, func() {
		seq++
		base := l.base
		l.Append(seq, keys[seq%3], val[:seq%uint64(len(val)+1)])
		if l.base != base {
			compactions++
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed Log.Append allocates %.1f/op, want 0", allocs)
	}
	if compactions < 2 {
		t.Fatalf("measured run compacted the byte FIFO %d times, want at least 2", compactions)
	}
	if got := l.footprint(); got != warm {
		t.Fatalf("footprint went from %d to %d bytes during the measured run, want no growth", warm, got)
	}
}

// TestLogHoldsWhatItStores pins that a log grows with what it holds: a
// lightly used log takes a small multiple of its payload, not its
// capacity's worth; a full one takes no more than the fixed-slot ring
// this layout replaced (8,192 48-byte slot headers plus the entries'
// bytes carved from 64 KiB chunks: 917,016 bytes for these entries);
// and a log whose entries shrink gives the spare bytes back.
func TestLogHoldsWhatItStores(t *testing.T) {
	const logCap, fixedRing = 8192, 917016
	l := NewLog(logCap)
	key, val := "key-00000", make([]byte, 48)
	seq := uint64(0)
	for ; seq < 683; seq++ {
		l.Append(seq+1, key, val)
	}
	if got := l.footprint(); got > 96<<10 {
		t.Fatalf("683 entries of 57 bytes take %d bytes, want at most 96 KiB", got)
	}
	for ; seq < 3*logCap; seq++ {
		l.Append(seq+1, key, val)
	}
	if got := l.footprint(); got > fixedRing {
		t.Fatalf("full log takes %d bytes, want at most the fixed ring's %d", got, fixedRing)
	}

	small := NewLog(64)
	small.Append(1, key, make([]byte, 300<<10))
	for seq := uint64(2); seq <= 2000; seq++ {
		small.Append(seq, key, val)
	}
	if got, bound := small.footprint(), 64*16+2*64*(len(key)+len(val)); got > bound {
		t.Fatalf("a 300 KiB value and 1,999 entries of 57 bytes later, NewLog(64) takes %d bytes, want at most %d (records plus twice the live bytes)", got, bound)
	}
}

// refLog is the reference model of Log: the resident window as a slice
// of copies.
type refLog struct {
	cap   int
	first uint64
	keys  []string
	vals  [][]byte
}

func (m *refLog) append(seq uint64, key string, val []byte) {
	if len(m.keys) == 0 || seq != m.first+uint64(len(m.keys)) {
		m.first, m.keys, m.vals = seq, m.keys[:0], m.vals[:0]
	}
	m.keys = append(m.keys, key)
	m.vals = append(m.vals, bytes.Clone(val))
	if len(m.keys) > m.cap {
		m.first, m.keys, m.vals = m.first+1, m.keys[1:], m.vals[1:]
	}
}

func (m *refLog) bounds() (first, last uint64) {
	if len(m.keys) == 0 {
		return 0, 0
	}
	return m.first, m.first + uint64(len(m.keys)) - 1
}

func (m *refLog) encode(f *server.ReplicateFrame, from, to uint64) (uint64, error) {
	if from >= to {
		return from, nil
	}
	if first, last := m.bounds(); first == 0 || from+1 < first || to > last {
		return from, ErrLogTrimmed
	}
	done := from
	for seq := from + 1; seq <= to; seq++ {
		if !f.Add(seq, []byte(m.keys[seq-m.first]), m.vals[seq-m.first]) {
			break
		}
		done = seq
	}
	if done == from {
		return from, errors.New("entry does not fit a frame")
	}
	return done, nil
}

// logPayload is the bytes model-test keys and values are cut from: room
// for a 300 KiB value at any of 251 offsets.
var logPayload = func() []byte {
	b := make([]byte, 300<<10+256)
	for i := range b {
		b[i] = byte(i*131 + i>>8)
	}
	return b
}()

// runLogModel drives a Log with capacity logCap and the reference model
// through the same Append/Encode sequence, drawn from pick (a value in
// [0,n); ok false ends the run), for at most steps steps. After every
// step it compares Bounds and the trim errors at both edges of the
// window; every Encode's frame must match the model's byte for byte.
func runLogModel(t testing.TB, logCap, steps int, pick func(n int) (v int, ok bool)) {
	t.Helper()
	l, m := NewLog(logCap), &refLog{cap: logCap}
	var fl, fm server.ReplicateFrame
	encode := func(step int, from, to uint64) {
		fl.Reset(1, 7)
		fm.Reset(1, 7)
		gotLast, gotErr := l.Encode(&fl, from, to)
		wantLast, wantErr := m.encode(&fm, from, to)
		if gotLast != wantLast || (gotErr == nil) != (wantErr == nil) ||
			errors.Is(gotErr, ErrLogTrimmed) != errors.Is(wantErr, ErrLogTrimmed) {
			t.Fatalf("step %d: Encode(%d,%d] = %d, %v; model %d, %v", step, from, to, gotLast, gotErr, wantLast, wantErr)
		}
		if !reflect.DeepEqual(fl, fm) {
			t.Fatalf("step %d: Encode(%d,%d] frame of %d entries differs from the model's %d", step, from, to, fl.Len(), fm.Len())
		}
	}
	var last uint64
	for step := 0; step < steps; step++ {
		op, ok := pick(16)
		if !ok {
			return
		}
		if op < 11 { // Append
			seq := last + 1
			if g, _ := pick(64); g == 0 { // a gap restarts the window
				seq += 2
			}
			kn, _ := pick(2049)
			ks, _ := pick(12)
			vn, _ := pick(2049)
			vs, _ := pick(12)
			kn >>= ks // lengths 0..2 KiB, mostly short
			vn >>= vs
			if b, _ := pick(50); b == 0 {
				vn = 300 << 10 // a value that splits frames
			}
			off := int(seq % 251)
			key, val := string(logPayload[off:off+kn]), logPayload[off+1:off+1+vn]
			l.Append(seq, key, val)
			m.append(seq, key, val)
			last = seq
		} else { // Encode a window around the resident one
			first, _ := m.bounds()
			lo := first - min(first, 2)
			width := int(last-lo) + 2
			span, _ := pick(width)
			sh, _ := pick(12)
			span >>= sh // mostly short windows
			a, _ := pick(width - span)
			encode(step, lo+uint64(a), lo+uint64(a+span))
		}
		gf, gl := l.Bounds()
		wf, wl := m.bounds()
		if gf != wf || gl != wl {
			t.Fatalf("step %d: Bounds = [%d,%d], model [%d,%d]", step, gf, gl, wf, wl)
		}
		if wf > 1 {
			encode(step, wf-2, wl) // trimmed below the window
		}
		encode(step, wl, wl+1) // not yet appended
	}
}

// TestLogMatchesReference runs seeded random Append/Encode sequences
// against the slice-of-copies model, through record-ring growth, wrap,
// byte-FIFO compaction and growth, and frames split by large values.
func TestLogMatchesReference(t *testing.T) {
	for _, logCap := range []int{1, 3, 64, 100, 8192} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cap%d/seed%d", logCap, seed), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, uint64(logCap)))
				steps := max(2000, 3*logCap)
				runLogModel(t, logCap, steps, func(n int) (int, bool) { return rng.IntN(n), true })
			})
		}
	}
}

// FuzzLogMatchesReference drives the same model from fuzz input: the
// first byte picks the capacity, and each later pair of bytes one
// choice.
func FuzzLogMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 200, 30, 40, 255, 255})
	f.Add(bytes.Repeat([]byte{2, 0, 0, 0, 9, 17, 0, 0, 3, 1, 0, 40, 0}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		caps := []int{1, 3, 64, 100, 8192}
		logCap := caps[int(data[0])%len(caps)]
		data = data[1:]
		runLogModel(t, logCap, len(data), func(n int) (int, bool) {
			if len(data) < 2 {
				return 0, false
			}
			v := int(binary.BigEndian.Uint16(data))
			data = data[2:]
			return v % n, true
		})
	})
}

// TestAllocFreeServerApplyWithOpLog extends the server's steady-state
// guarantee across the cluster hook: a warmed Put with the op-log
// append attached stays allocation-free on the apply path. The put
// itself runs through Server.Put, whose measured budget (request pool +
// response channel reuse) is zero; the OnApply hook must not add any.
func TestAllocFreeServerApplyWithOpLog(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; the zero-alloc guarantee binds on the default build")
	}
	l := NewLog(256)
	cfg := server.Config{
		Shards:     1,
		ORAM:       server.DefaultORAM(8),
		Seed:       11,
		QueueDepth: 128,
		MaxBatch:   1,
		OnApply: func(tc obs.TraceContext, shard int, seq uint64, key string, val []byte) bool {
			l.Append(seq, key, val)
			return false
		},
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	key, val := "alloc-key", []byte("alloc-value-123")
	// The warmup spans several full eviction cycles so every lazily
	// materialized bucket, pool buffer, and ring slot reaches steady
	// capacity first (mirrors TestAllocFreeFunctionalAccess).
	for i := 0; i < 8192; i++ {
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
	})
	// The shard worker runs on its own goroutine, so AllocsPerRun sees
	// the global rate; a fractional bound absorbs scheduler noise while
	// still catching any real per-op allocation.
	if allocs > 0.5 {
		t.Fatalf("warmed Put with op log allocates %.2f/op, want ~0", allocs)
	}
}
