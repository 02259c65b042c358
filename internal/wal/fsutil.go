package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// TempPrefix marks in-progress atomic writes. Crashed leftovers carrying it
// may be deleted by any owner of the directory (recovery and SaveDir
// reconciliation both do).
const TempPrefix = ".axml-tmp-"

// WriteFileAtomic replaces path with data such that a crash at any point
// leaves either the old file or the new one, never a truncated mix. It is
// WriteFileAtomicFunc with a writer that writes data.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return WriteFileAtomicFunc(path, perm, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteFileAtomicFunc replaces path with whatever write writes, streamed
// straight to disk: the bytes go to a temp file in the same directory,
// which is fsynced and renamed over path, and the directory is fsynced so
// the rename itself is durable. A crash at any point leaves either the old
// file or the new one. If write (or any step) fails, the temp file is
// removed and path is untouched.
func WriteFileAtomicFunc(path string, perm os.FileMode, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, TempPrefix+"*")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("wal: atomic write %s: %w", path, err)
	}
	if err := write(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: atomic write %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: atomic write %s: %w", path, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so entry creations, renames and removals in it
// are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("wal: fsync %s: %w", dir, serr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: %w", cerr)
	}
	return nil
}
