package server

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"stringoram/internal/obs"
	"stringoram/internal/oram"
)

// testConfig returns a small, fast 4-shard configuration.
func testConfig() Config {
	return Config{
		Shards:     4,
		ORAM:       DefaultORAM(8),
		Seed:       42,
		QueueDepth: 128,
		MaxBatch:   16,
	}
}

func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Close()

	if _, found, err := s.Get("missing"); err != nil || found {
		t.Fatalf("Get(missing) = found=%v err=%v, want absent", found, err)
	}
	if err := s.Put("alpha", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("beta", []byte("two")); err != nil {
		t.Fatal(err)
	}
	v, found, err := s.Get("alpha")
	if err != nil || !found || string(v) != "one" {
		t.Fatalf("Get(alpha) = %q found=%v err=%v", v, found, err)
	}
	// Overwrite.
	if err := s.Put("alpha", []byte("uno")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = s.Get("alpha")
	if string(v) != "uno" {
		t.Fatalf("after overwrite Get(alpha) = %q, want uno", v)
	}
	// Empty value is storable and distinct from absent.
	if err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	v, found, err = s.Get("empty")
	if err != nil || !found || len(v) != 0 {
		t.Fatalf("Get(empty) = %q found=%v err=%v, want present empty", v, found, err)
	}
}

func TestValidation(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Close()

	if err := s.Put("", []byte("x")); !errors.Is(err, ErrBadKey) {
		t.Fatalf("empty key: %v, want ErrBadKey", err)
	}
	big := make([]byte, s.MaxValueLen()+1)
	if err := s.Put("k", big); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("oversized value: %v, want ErrValueTooLarge", err)
	}
	if Retryable(ErrValueTooLarge) {
		t.Fatal("validation errors must not be retryable")
	}
	// Largest allowed value round-trips bit-exact.
	max := make([]byte, s.MaxValueLen())
	for i := range max {
		max[i] = byte(i)
	}
	if err := s.Put("max", max); err != nil {
		t.Fatal(err)
	}
	v, _, err := s.Get("max")
	if err != nil || !bytes.Equal(v, max) {
		t.Fatalf("max-size value corrupted: err=%v", err)
	}
}

// TestStress is the acceptance gate: >= 64 concurrent clients across
// >= 4 shards, zero lost or duplicated responses, every acknowledged
// write readable afterwards.
func TestStress(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 64
	s := mustNew(t, cfg)

	const (
		clients = 64
		opsEach = 40
	)
	type ack struct {
		key string
		val string
	}
	acked := make([][]ack, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				// Each client owns its keys, so last-acked-value is the
				// exact expected state; key space spans all shards.
				key := fmt.Sprintf("c%02d-k%02d", c, i%8)
				val := fmt.Sprintf("v-%d-%d", c, i)
				for {
					err := s.Put(key, []byte(val))
					if err == nil {
						acked[c] = append(acked[c], ack{key, val})
						break
					}
					if !Retryable(err) {
						t.Errorf("client %d: non-retryable put error: %v", c, err)
						return
					}
				}
				// Interleave reads; a response must arrive for every call.
				if i%3 == 0 {
					for {
						_, _, err := s.Get(key)
						if err == nil {
							break
						}
						if !Retryable(err) {
							t.Errorf("client %d: non-retryable get error: %v", c, err)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// Exactly one response per request is structural (each request's
	// done channel is written once); verify no acknowledged write was
	// lost: the last ack per key must be readable.
	want := make(map[string]string)
	total := 0
	for _, list := range acked {
		total += len(list)
		for _, a := range list {
			want[a.key] = a.val
		}
	}
	if total != clients*opsEach {
		t.Fatalf("acknowledged %d puts, want %d", total, clients*opsEach)
	}
	for key, val := range want {
		v, found, err := s.Get(key)
		if err != nil || !found || string(v) != val {
			t.Fatalf("key %s: got %q found=%v err=%v, want %q", key, v, found, err, val)
		}
	}

	m := s.Metrics()
	if m.Puts != uint64(total) {
		t.Errorf("metrics.Puts = %d, want %d", m.Puts, total)
	}
	if m.Shards != 4 {
		t.Errorf("metrics.Shards = %d, want 4", m.Shards)
	}
	if m.ORAMAccesses == 0 || m.SlotAccesses == 0 || m.LatencySamples == 0 {
		t.Errorf("metrics not populated: %+v", m)
	}
	if m.P99Seconds < m.P50Seconds {
		t.Errorf("p99 (%v) < p50 (%v)", m.P99Seconds, m.P50Seconds)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("late", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v, want ErrClosed", err)
	}
}

// TestKillRestart is the persistence acceptance gate: acknowledged
// writes survive a shutdown/restart cycle through shard snapshots.
func TestKillRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.SnapshotDir = dir
	cfg.Key = []byte("0123456789abcdef") // sealed store survives too
	s := mustNew(t, cfg)

	const clients = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	want := make(map[string]string)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("p%02d-%02d", c, i)
				val := fmt.Sprintf("payload-%d-%d", c, i)
				for {
					err := s.Put(key, []byte(val))
					if err == nil {
						mu.Lock()
						want[key] = val
						mu.Unlock()
						break
					}
					if !Retryable(err) {
						t.Errorf("put: %v", err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if err := s.Close(); err != nil { // kill: drain + snapshot
		t.Fatal(err)
	}

	// Snapshot files are complete (rename-committed), one per shard.
	for i := 0; i < cfg.Shards; i++ {
		if _, err := os.Stat(snapshotPath(dir, i)); err != nil {
			t.Fatalf("snapshot %d missing: %v", i, err)
		}
	}
	leftover, _ := filepath.Glob(filepath.Join(dir, ".snap-*"))
	if len(leftover) != 0 {
		t.Fatalf("temp snapshot files left behind: %v", leftover)
	}

	// Restart: every acknowledged write must be readable.
	s2 := mustNew(t, cfg)
	defer s2.Close()
	for key, val := range want {
		v, found, err := s2.Get(key)
		if err != nil || !found || string(v) != val {
			t.Fatalf("after restart, key %s: got %q found=%v err=%v, want %q", key, v, found, err, val)
		}
	}
	// And the restored server keeps serving new writes.
	if err := s2.Put("post-restart", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if m := s2.Metrics(); m.Keys == 0 {
		t.Error("restored server reports zero keys")
	}
}

func TestRestartWrongKeyFails(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.Shards = 1
	cfg.SnapshotDir = dir
	cfg.Key = []byte("0123456789abcdef")
	s := mustNew(t, cfg)
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Key = nil // sealed checkpoint, no key
	if _, err := New(cfg); err == nil {
		t.Fatal("restore of sealed snapshot without key succeeded")
	}
	// A plaintext snapshot restored under a key would serve on unsealed.
	cfg.SnapshotDir = t.TempDir()
	s = mustNew(t, cfg)
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Key = []byte("0123456789abcdef")
	if _, err := New(cfg); err == nil {
		t.Fatal("restore of plaintext snapshot under a key succeeded")
	}
}

// TestShardsNeverShareKeystream: every shard's Ring seals at IVs named by
// tree positions, so shards under one key would seal equal positions with
// one keystream. Each shard seals under its own key derived from the
// master, and no slot body may appear in both shards' stores.
func TestShardsNeverShareKeystream(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 2
	cfg.Key = []byte("0123456789abcdef")
	short := cfg
	short.Key = cfg.Key[:5] // RingKey would take any length; the master must be an AES key
	if _, err := New(short); err == nil {
		t.Fatal("New accepted a 5-byte master key")
	}
	s := mustNew(t, cfg)
	defer s.Close()
	for i := 0; i < 400; i++ {
		if err := s.Put(fmt.Sprintf("key-%03d", i%100), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	bodies := []map[string]int{slotBodies(t, s, 0), slotBodies(t, s, 1)}
	if shared, stored := sharedBodies(bodies[0], bodies[1]); shared != 0 || stored == 0 {
		t.Fatalf("%d of %d stored slots have a byte-identical body in the other shard", shared, stored)
	}
}

// TestReplicasNeverShareKeystream pins one key per Ring incarnation across
// the copies of one shard: a primary serving Puts and Gets, a follower
// built fresh from the same Config and fed only the replicated Puts, and
// a handoff target restored from the primary's snapshot halfway through.
// Their trees diverge, so copies under one key would seal different
// contents at one IV. Every copy must still read back every write.
func TestReplicasNeverShareKeystream(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	cfg.Key = []byte("0123456789abcdef")
	var (
		mu  sync.Mutex
		log ReplicateFrame
	)
	log.Reset(0, 0)
	pcfg := cfg
	pcfg.OnApply = func(_ obs.TraceContext, _ int, seq uint64, key string, val []byte) bool {
		mu.Lock()
		defer mu.Unlock()
		if !log.Add(seq, []byte(key), val) {
			t.Error("replicate frame full")
		}
		return false
	}
	primary, follower, target := mustNew(t, pcfg), mustNew(t, cfg), mustNew(t, cfg)
	defer primary.Close()
	defer follower.Close()
	defer target.Close()
	if _, err := target.DetachShard(0); err != nil {
		t.Fatal(err)
	}
	replicas := []*Server{follower}
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("key-%02d", i%50)
		if err := primary.Put(key, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := primary.Get(key); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		es := ReplicatedEntries{count: log.count, data: log.buf[replicateHdrLen:]}
		for _, r := range replicas {
			if err := r.ApplyEntries(obs.TraceContext{}, 0, es); err != nil {
				t.Fatal(err)
			}
		}
		log.Reset(0, 0)
		mu.Unlock()
		if i == 199 {
			snap, _, err := primary.SnapshotShard(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := target.AttachShard(0, snap, true); err != nil {
				t.Fatal(err)
			}
			replicas = append(replicas, target)
		}
	}
	for i := 350; i < 400; i++ {
		key, want := fmt.Sprintf("key-%02d", i%50), fmt.Sprintf("value-%d", i)
		for _, r := range replicas {
			if got, ok, err := r.Get(key); err != nil || !ok || string(got) != want {
				t.Fatalf("replica Get(%s) = %q, %v, %v; want %q", key, got, ok, err, want)
			}
		}
	}
	copies := []string{"primary", "follower", "handoff target"}
	bodies := []map[string]int{slotBodies(t, primary, 0), slotBodies(t, follower, 0), slotBodies(t, target, 0)}
	for a := range bodies {
		for b := a + 1; b < len(bodies); b++ {
			if shared, stored := sharedBodies(bodies[a], bodies[b]); shared != 0 || stored == 0 {
				t.Errorf("%d of %d stored slots of the %s have a byte-identical body in the %s", shared, stored, copies[a], copies[b])
			}
		}
	}
}

// slotBodies counts the sealed slot bodies (the bytes after the seal
// header) in hosted shard id's store, read back from its snapshot.
func slotBodies(t *testing.T, s *Server, id int) map[string]int {
	t.Helper()
	blob, _, err := s.SnapshotShard(id)
	if err != nil {
		t.Fatal(err)
	}
	var snap shardSnap
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	// ring mirrors the store section of an oram checkpoint; gob matches
	// fields by name and skips the rest.
	var ring struct {
		Store []struct {
			Bucket int64
			Slots  [][]byte
		}
	}
	if err := gob.NewDecoder(bytes.NewReader(snap.Ring)).Decode(&ring); err != nil {
		t.Fatal(err)
	}
	bodies := make(map[string]int)
	for _, b := range ring.Store {
		for _, sealed := range b.Slots {
			if sealed != nil {
				bodies[string(sealed[oram.SealOverhead:])]++
			}
		}
	}
	return bodies
}

// sharedBodies returns how many slots of a have a body also stored in b,
// and how many slots a holds.
func sharedBodies(a, b map[string]int) (shared, stored int) {
	for body, n := range a {
		stored += n
		if b[body] > 0 {
			shared += n
		}
	}
	return shared, stored
}

func TestPartialSnapshotSetRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.SnapshotDir = dir
	s := mustNew(t, cfg)
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(snapshotPath(dir, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("partial snapshot set accepted; acknowledged writes would be dropped silently")
	}
}

// TestBackpressure stalls the single worker, fills the depth-1 queue,
// and verifies the next request is rejected immediately with the typed,
// retryable ErrBacklog — and that a retry after drain succeeds.
func TestBackpressure(t *testing.T) {
	entered := make(chan struct{}, 16)
	hold := make(chan struct{})
	cfg := Config{
		Shards: 1, QueueDepth: 1, MaxBatch: 1,
		ORAM: DefaultORAM(8), Seed: 7,
		onBatch: func(shard, n int) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-hold
		},
	}
	s := mustNew(t, cfg)
	defer s.Close()

	results := make(chan error, 2)
	go func() { results <- s.Put("a", []byte("1")) }()
	<-entered // worker is now stalled inside batch 1 ("a" dequeued)
	go func() { results <- s.Put("b", []byte("2")) }()
	// Wait until "b" occupies the queue slot.
	for len(s.shards[0].reqs) == 0 {
		time.Sleep(time.Millisecond)
	}

	err := s.Put("c", []byte("3"))
	if !errors.Is(err, ErrBacklog) {
		t.Fatalf("overflow put: %v, want ErrBacklog", err)
	}
	if !Retryable(err) {
		t.Fatal("ErrBacklog must be retryable")
	}
	if m := s.Metrics(); m.Rejected == 0 {
		t.Error("rejection not counted in metrics")
	}

	close(hold) // drain
	if err := <-results; err != nil {
		t.Fatal(err)
	}
	if err := <-results; err != nil {
		t.Fatal(err)
	}
	if err := s.Put("c", []byte("3")); err != nil { // retry now succeeds
		t.Fatalf("retry after drain: %v", err)
	}
}

func TestDeadlineExpiry(t *testing.T) {
	cfg := testConfig()
	s := mustNew(t, cfg)
	defer s.Close()

	err := s.PutCtx(obs.TraceContext{}, "k", []byte("v"), time.Now().Add(-time.Millisecond))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired put: %v, want ErrDeadline", err)
	}
	if !Retryable(err) {
		t.Fatal("ErrDeadline must be retryable")
	}
	// The expired request performed no ORAM access and left no state.
	if _, found, _ := s.Get("k"); found {
		t.Fatal("expired put left a value behind")
	}
	if m := s.Metrics(); m.Expired == 0 {
		t.Error("expiry not counted in metrics")
	}
}

// TestDeterministicSingleWorker: with one shard and batching disabled,
// the same seed and request sequence produce the identical protocol
// trace — the property every simulator golden in this repo relies on.
func TestDeterministicSingleWorker(t *testing.T) {
	runOnce := func() []byte {
		cfg := Config{Shards: 1, MaxBatch: 1, QueueDepth: 8, ORAM: DefaultORAM(8), Seed: 99}
		s := mustNew(t, cfg)
		for i := 0; i < 50; i++ {
			key := fmt.Sprintf("k%d", i%10)
			if err := s.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Get(key); err != nil {
				t.Fatal(err)
			}
		}
		stats := s.ShardStats()
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "%+v", stats)
		s.Close()
		return buf.Bytes()
	}
	a, b := runOnce(), runOnce()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestShardKeyCapacity(t *testing.T) {
	cfg := Config{Shards: 1, ORAM: DefaultORAM(8), Seed: 3, MaxKeysPerShard: 4}
	s := mustNew(t, cfg)
	defer s.Close()
	var fullErr error
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			fullErr = err
			break
		}
	}
	if !errors.Is(fullErr, ErrFull) {
		t.Fatalf("capacity overflow: %v, want ErrFull", fullErr)
	}
	// Existing keys still writable at capacity.
	if err := s.Put("key-0", []byte("updated")); err != nil {
		t.Fatalf("overwrite at capacity: %v", err)
	}
}

// TestMissIsBusVisible: a get miss must cost exactly one ORAM access,
// like a hit (hit/miss indistinguishability on the bus).
func TestMissCostsOneAccess(t *testing.T) {
	cfg := Config{Shards: 1, MaxBatch: 1, ORAM: DefaultORAM(8), Seed: 5}
	s := mustNew(t, cfg)
	defer s.Close()

	if err := s.Put("present", []byte("v")); err != nil {
		t.Fatal(err)
	}
	base := s.Metrics().ORAMAccesses
	if _, found, err := s.Get("absent"); err != nil || found {
		t.Fatalf("Get(absent) = found=%v err=%v", found, err)
	}
	if _, found, err := s.Get("present"); err != nil || !found {
		t.Fatalf("Get(present) = found=%v err=%v", found, err)
	}
	after := s.Metrics().ORAMAccesses
	if after-base != 2 {
		t.Fatalf("miss+hit cost %d ORAM accesses, want 2 (one each)", after-base)
	}
}

func TestCloseIdempotent(t *testing.T) {
	s := mustNew(t, testConfig())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Shards != 4 || cfg.QueueDepth != 256 || cfg.MaxBatch != 32 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if cfg.ORAM.Levels != 12 || cfg.ORAM.WarmFill != 0 {
		t.Fatalf("unexpected default ORAM: %+v", cfg.ORAM)
	}
	if cfg.MaxKeysPerShard != int(cfg.ORAM.Leaves()) {
		t.Fatalf("MaxKeysPerShard = %d, want %d", cfg.MaxKeysPerShard, cfg.ORAM.Leaves())
	}
	if !reflect.DeepEqual(DefaultORAM(8), Config{ORAM: DefaultORAM(8)}.withDefaults().ORAM) {
		t.Fatal("explicit ORAM config not preserved")
	}
}

// TestConfigPipelineIsInert pins the one thing bench/ still relies on
// until the benchmark PR drops Config.Pipeline: the field selects
// nothing. Servers built with Pipeline 0 and 4 from the same seed answer
// the same op sequence identically and end in the same state — protocol
// counters, and every shard's snapshot (decoded, because gob writes the
// key directory in map order; the Ring checkpoint inside is re-sealed
// under one common key, because every shard draws a random key salt, and
// then compared byte for byte) — and the Pipeline 4 exposition carries
// no pipeline or worker-pool series.
func TestConfigPipelineIsInert(t *testing.T) {
	run := func(pipeline int) (responses []string, stats []oram.Stats, snaps []shardSnap, exposition string) {
		cfg := testConfig()
		cfg.Key = []byte("inert-key-16byte")
		cfg.Pipeline = pipeline
		s := mustNew(t, cfg)
		defer s.Close()
		for i := 0; i < 400; i++ {
			key := fmt.Sprintf("key-%03d", (i*7)%96)
			if i%3 != 2 {
				err := s.Put(key, []byte(fmt.Sprintf("v%04d-%s", i, key)))
				responses = append(responses, fmt.Sprint(err))
			} else {
				val, found, err := s.Get(key)
				responses = append(responses, fmt.Sprintf("%v:%s:%v", found, val, err))
			}
		}
		stats = s.ShardStats()
		for _, id := range s.HostedShards() {
			data, _, err := s.SnapshotShard(id)
			if err != nil {
				t.Fatal(err)
			}
			var snap shardSnap
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			ring, err := oram.Load(bytes.NewReader(snap.Ring), ringKey(cfg, id, snap.Salt))
			if err != nil {
				t.Fatal(err)
			}
			if err := ring.Rekey(cfg.Key); err != nil {
				t.Fatal(err)
			}
			var rb bytes.Buffer
			if err := ring.Save(&rb); err != nil {
				t.Fatal(err)
			}
			snap.Ring, snap.Salt = rb.Bytes(), nil
			snaps = append(snaps, snap)
		}
		var buf bytes.Buffer
		if err := s.Obs().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return responses, stats, snaps, buf.String()
	}
	resp0, stats0, snaps0, _ := run(0)
	resp4, stats4, snaps4, expo4 := run(4)
	if !reflect.DeepEqual(resp0, resp4) {
		t.Fatal("Pipeline 4 changed the responses")
	}
	if !reflect.DeepEqual(stats0, stats4) {
		t.Fatalf("Pipeline 4 changed ShardStats:\n 0: %+v\n 4: %+v", stats0, stats4)
	}
	if !reflect.DeepEqual(snaps0, snaps4) {
		t.Fatal("Pipeline 4 changed the shard snapshots")
	}
	for _, series := range []string{"oram_pipeline_", "server_pool_"} {
		if strings.Contains(expo4, series) {
			t.Fatalf("Pipeline 4 exposition contains a %s series", series)
		}
	}
}

// TestEncodeValueScratchFraming pins the scratch-based Put framing: a
// 2-byte big-endian length, the value, and a zero tail — including
// stale-tail clearing when a shorter value follows a longer one — and
// that decodeValue inverts it.
func TestEncodeValueScratchFraming(t *testing.T) {
	sh := &shard{blockSize: 32, encBuf: make([]byte, 32)}
	long := bytes.Repeat([]byte{0xAB}, 30)
	short := []byte("hi")
	for _, val := range [][]byte{long, short, nil} {
		got := sh.encodeValueScratch(val)
		if len(got) != sh.blockSize || int(binary.BigEndian.Uint16(got)) != len(val) ||
			!bytes.Equal(got[valueHeaderLen:valueHeaderLen+len(val)], val) {
			t.Fatalf("encodeValueScratch(%q) = %x: bad length header or payload", val, got)
		}
		if tail := got[valueHeaderLen+len(val):]; !bytes.Equal(tail, make([]byte, len(tail))) {
			t.Fatalf("encodeValueScratch(%q) = %x: stale tail after the value", val, got)
		}
		if back, err := decodeValue(nil, got); err != nil || !bytes.Equal(back, val) {
			t.Fatalf("decodeValue(encodeValueScratch(%q)) = %q, %v", val, back, err)
		}
	}
}

// TestReleaseAnswersInOrder pins the OnApply hold contract. A held Put
// and every answer behind it — a Get of the same key, a Barrier — wait
// until Release settles the Put. A retryable read error fails them
// without settling, so a Get after it still waits; a settling Release
// answers that Get with the held write, and later answers go out
// directly.
func TestReleaseAnswersInOrder(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	handed := make(chan uint64, 8)
	cfg.OnApply = func(tc obs.TraceContext, shard int, seq uint64, key string, val []byte) bool {
		handed <- seq
		return true
	}
	s := mustNew(t, cfg)
	defer s.Close()
	async := func(f func() error) chan error {
		ch := make(chan error, 1)
		go func() { ch <- f() }()
		return ch
	}
	getV1 := func() error {
		v, found, err := s.Get("k")
		if err == nil && (!found || string(v) != "v1") {
			err = fmt.Errorf("Get = %q found=%v, want v1", v, found)
		}
		return err
	}
	pending := func(what string, ch chan error) {
		t.Helper()
		select {
		case err := <-ch:
			t.Fatalf("%s answered (%v) before its Release", what, err)
		case <-time.After(20 * time.Millisecond):
		}
	}

	put := async(func() error { return s.Put("k", []byte("v1")) })
	seq := <-handed
	get := async(getV1)
	barrier := async(func() error { _, err := s.Barrier(0); return err })
	pending("held Put", put)
	pending("Get behind the held Put", get)
	pending("Barrier behind the held Put", barrier)

	s.Release(0, seq, ErrBacklog, ErrBacklog)
	if err := <-put; !Retryable(err) {
		t.Fatalf("Put released with a retryable outcome: err = %v", err)
	}
	if err := <-get; !Retryable(err) {
		t.Fatalf("Get released with a retryable outcome: err = %v", err)
	}
	if err := <-barrier; err != nil {
		t.Fatalf("Barrier answers as computed, got %v", err)
	}
	get = async(getV1)
	pending("Get behind an unsettled Put", get)

	s.Release(0, seq, nil, nil)
	if err := <-get; err != nil {
		t.Fatal(err)
	}
	if err := getV1(); err != nil {
		t.Fatalf("Get after the settling Release: %v", err)
	}
}

// TestGetReadBeforeFailedSettleRefused stages the race the serving check
// in shard.answer closes: the worker reads a key for a Get while the
// write it returns is held, and the releaser fails that write for good
// before the Get's answer is given. The releaser stops the shard serving
// first, so the Get fails ErrWrongShard instead of returning a write
// that may be lost.
func TestGetReadBeforeFailedSettleRefused(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	handed := make(chan uint64, 1)
	cfg.OnApply = func(tc obs.TraceContext, shard int, seq uint64, key string, val []byte) bool {
		handed <- seq
		return true
	}
	s := mustNew(t, cfg)
	defer s.Close()
	put := make(chan error, 1)
	go func() { put <- s.Put("k", []byte("v1")) }()
	seq := <-handed

	if err := s.SetShardServing(0, false); err != nil {
		t.Fatal(err)
	}
	s.Release(0, seq, ErrClosed, ErrClosed)
	if err := <-put; !errors.Is(err, ErrClosed) {
		t.Fatalf("Put failed for good: err = %v, want ErrClosed", err)
	}
	get := &request{op: opGet, key: "k", done: make(chan result, 1)}
	s.byID[0].answer(get, result{val: []byte("v1"), found: true})
	if res := <-get.done; !errors.Is(res.err, ErrWrongShard) {
		t.Fatalf("Get read before the failing Release = %q, %v; want ErrWrongShard", res.val, res.err)
	}
}
