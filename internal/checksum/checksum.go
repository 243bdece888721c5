// Package checksum frames persisted bytes with a SHA-256 trailer, so a
// reader refuses a flipped, cut or appended byte before it trusts any
// field. It is the one framing of the Ring checkpoint (oram.Ring.Save)
// and of the server's shard snapshots, which wrap one.
package checksum

import (
	"bytes"
	"crypto/sha256"
	"errors"
)

// Append returns body followed by its SHA-256, reusing body's backing
// array when it has room.
func Append(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}

// Strip checks the SHA-256 that Append put after the body and returns
// the body, aliasing data.
func Strip(data []byte) ([]byte, error) {
	if len(data) < sha256.Size {
		return nil, errors.New("shorter than its checksum")
	}
	body := data[:len(data)-sha256.Size]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], data[len(body):]) {
		return nil, errors.New("checksum mismatch")
	}
	return body, nil
}
