package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSnapshots runs a server against dir, writes a few keys, and
// closes it so every shard's snapshot lands on disk.
func writeSnapshots(t *testing.T, dir string) Config {
	t.Helper()
	cfg := testConfig()
	cfg.SnapshotDir = dir
	s := mustNew(t, cfg)
	for i := 0; i < 32; i++ {
		if err := s.Put(fmt.Sprintf("snap-key-%d", i), []byte(fmt.Sprintf("snap-val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestSnapshotsPresentStates(t *testing.T) {
	ids := []int{0, 1, 2, 3}

	// No directory configured, or configured but missing/empty: fresh
	// start, no restore.
	for _, dir := range []string{"", t.TempDir()} {
		ok, err := snapshotsPresent(dir, ids)
		if err != nil || ok {
			t.Fatalf("snapshotsPresent(%q) = %v, %v; want false, nil", dir, ok, err)
		}
	}

	dir := t.TempDir()
	writeSnapshots(t, dir)
	ok, err := snapshotsPresent(dir, ids)
	if err != nil || !ok {
		t.Fatalf("complete set = %v, %v; want true, nil", ok, err)
	}
}

// TestSnapshotsPresentPartialSetRejected pins the refusal to restore
// from an incomplete snapshot set: loading 3 of 4 shards would silently
// drop the missing shard's acknowledged writes.
func TestSnapshotsPresentPartialSetRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := writeSnapshots(t, dir)
	if err := os.Remove(snapshotPath(dir, 2)); err != nil {
		t.Fatal(err)
	}

	if _, err := snapshotsPresent(dir, []int{0, 1, 2, 3}); err == nil ||
		!strings.Contains(err.Error(), "refusing partial restore") {
		t.Fatalf("partial set err = %v, want refusing partial restore", err)
	}
	// The same refusal must reach New, not just the helper.
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "refusing partial restore") {
		t.Fatalf("New over partial set err = %v, want refusing partial restore", err)
	}
}

// TestRestoreTruncatedSnapshot pins the failure mode for a snapshot cut
// short (a crash mid-copy, a partial scp): restore must fail loudly
// instead of coming up with a silently emptier shard.
func TestRestoreTruncatedSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := writeSnapshots(t, dir)

	path := snapshotPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "restore") {
		t.Fatalf("New over truncated snapshot err = %v, want restore failure", err)
	}
}

// TestRestoreCorruptSnapshot flips bytes mid-file: the gob decode (or
// the ORAM checkpoint load behind it) must reject the blob.
func TestRestoreCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := writeSnapshots(t, dir)

	path := snapshotPath(dir, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 4; i < len(data)/2; i++ {
		data[i] ^= 0xa5
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("New over corrupt snapshot succeeded, want error")
	}
}

// TestRestoreOldCheckpointVersion: a shard snapshot whose embedded ring
// checkpoint is from an older seal format (ring-y2.ckpt, version 2, whose
// slots carry an IV header) must make New fail closed instead of serving
// from bytes it would open under the wrong keystream.
func TestRestoreOldCheckpointVersion(t *testing.T) {
	dir := t.TempDir()
	cfg := writeSnapshots(t, dir)
	old, err := os.ReadFile(filepath.Join("..", "oram", "testdata", "ring-y2.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	path := snapshotPath(dir, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := decodeShardSnap(data)
	if err != nil {
		t.Fatal(err)
	}
	snap.Ring = old
	if data, err = encodeShardSnap(&snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err == nil {
		s.Close()
		t.Fatal("New restored a shard from a version-2 ring checkpoint")
	}
	if !strings.Contains(err.Error(), "checkpoint version 2") {
		t.Fatalf("New over a version-2 ring checkpoint err = %v, want a version error", err)
	}
}

// TestAttachShardRejectsBadSnapshot covers the handoff ingest path: a
// truncated or foreign-shard blob must be rejected and leave the server
// not hosting the shard.
func TestAttachShardRejectsBadSnapshot(t *testing.T) {
	cfg := Config{
		TotalShards: 4,
		ShardIDs:    []int{0, 1},
		ORAM:        DefaultORAM(8),
		Seed:        7,
		QueueDepth:  64,
		MaxBatch:    8,
	}
	s := mustNew(t, cfg)
	defer s.Close()

	donor := mustNew(t, cfg)
	defer donor.Close()
	snap, _, err := donor.SnapshotShard(1)
	if err != nil {
		t.Fatal(err)
	}

	// Truncated gob.
	if err := s.AttachShard(2, snap[:len(snap)/3], false); err == nil {
		t.Fatal("AttachShard accepted a truncated snapshot")
	}
	// Shard-ID mismatch: blob says shard 1, attach as shard 2.
	if err := s.AttachShard(2, snap, false); err == nil {
		t.Fatal("AttachShard accepted a foreign shard's snapshot")
	}
	for _, hosted := range s.HostedShards() {
		if hosted == 2 {
			t.Fatal("failed attach left shard 2 hosted")
		}
	}
	// Garbage bytes.
	if err := s.AttachShard(2, bytes.Repeat([]byte{0x5a}, 256), false); err == nil {
		t.Fatal("AttachShard accepted garbage")
	}
}

// TestRestoreWrongShardCount pins the re-sharding refusal: a snapshot
// taken at one shard modulus must not load into another (keys would
// hash to different shards and vanish).
func TestRestoreWrongShardCount(t *testing.T) {
	dir := t.TempDir()
	cfg := writeSnapshots(t, dir)

	cfg.Shards = 8
	cfg.ShardIDs = nil
	cfg.TotalShards = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("New with changed shard count over old snapshots succeeded, want error")
	}
}

// TestSnapshotBitFlipRefused flips one bit at evenly spaced offsets of a
// shard snapshot: every flip must be refused, by AttachShard (the
// handoff ingest) and by New over the on-disk file, never served as a
// shard whose keys read back wrong or missing.
func TestSnapshotBitFlipRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := writeSnapshots(t, dir)
	path := snapshotPath(dir, 0)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	host := mustNew(t, Config{TotalShards: cfg.Shards, ShardIDs: []int{1}, ORAM: cfg.ORAM,
		Seed: cfg.Seed, QueueDepth: cfg.QueueDepth, MaxBatch: cfg.MaxBatch})
	defer host.Close()

	const flips = 64
	for i := 0; i < flips; i++ {
		off := i * len(good) / flips
		bad := bytes.Clone(good)
		bad[off] ^= 1 << (i % 8)
		if err := host.AttachShard(0, bad, false); err == nil {
			t.Fatalf("AttachShard accepted a snapshot with bit %d of byte %d of %d flipped", i%8, off, len(good))
		}
		if err := os.WriteFile(path, bad, 0o600); err != nil {
			t.Fatal(err)
		}
		if s, err := New(cfg); err == nil {
			s.Close()
			t.Fatalf("New restored a snapshot with bit %d of byte %d of %d flipped", i%8, off, len(good))
		}
	}
	// The unflipped bytes still attach and load, so each refusal above
	// was the flip's doing.
	if err := host.AttachShard(0, good, false); err != nil {
		t.Fatalf("AttachShard refused the intact snapshot: %v", err)
	}
	if err := os.WriteFile(path, good, 0o600); err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, cfg)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
