// Package atomicfile replaces a file's contents so that a crash leaves
// either the complete new file or the old one (or none), never a torn
// one.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write creates path's contents with write and commits them atomically
// and durably: write fills a temp file in path's directory (named by
// os.CreateTemp from pattern), which is synced to disk, given mode perm
// and renamed over path; the directory is then synced so the rename
// survives a crash too. On error the temp file is removed and path is
// left as it was.
func Write(path, pattern string, perm os.FileMode, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Chmod(perm); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir flushes a directory's entries, making a rename into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
