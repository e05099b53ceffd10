// Package debugfs models the Linux debugfs pseudo-filesystem interface
// through which both Ftrace and Fmeter export kernel-side data to
// user-space (paper §3). Files are registered with read/write handlers that
// run at access time, exactly like debugfs file_operations: reading
// "fmeter/counters" serializes the live per-CPU counter state, it does not
// return a stored snapshot.
package debugfs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// ErrNotFound is returned when a path has no registered node.
var ErrNotFound = errors.New("debugfs: no such file")

// ErrNotSupported is returned when a node has no handler for the requested
// access (e.g. writing a read-only file).
var ErrNotSupported = errors.New("debugfs: operation not supported")

// ReadFunc produces the current contents of a node.
type ReadFunc func() ([]byte, error)

// WriteFunc applies a write to a node (e.g. "echo 1 > tracing_on").
type WriteFunc func([]byte) error

// node is one registered pseudo-file.
type node struct {
	read  ReadFunc
	write WriteFunc
}

// FS is an in-memory debugfs instance.
type FS struct {
	mu    sync.RWMutex
	nodes map[string]*node
}

// New returns an empty filesystem.
func New() *FS {
	return &FS{nodes: make(map[string]*node)}
}

// clean canonicalizes a path: no leading/trailing slashes, single
// separators.
func clean(path string) string {
	parts := strings.Split(path, "/")
	out := parts[:0]
	for _, p := range parts {
		if p != "" {
			out = append(out, p)
		}
	}
	return strings.Join(out, "/")
}

// Create registers a node at path with the given handlers. Either handler
// may be nil (the node is then write-only or read-only respectively, but
// not both nil).
func (fs *FS) Create(path string, read ReadFunc, write WriteFunc) error {
	cp := clean(path)
	if cp == "" {
		return fmt.Errorf("debugfs: empty path")
	}
	if read == nil && write == nil {
		return fmt.Errorf("debugfs: node %q needs at least one handler", cp)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, dup := fs.nodes[cp]; dup {
		return fmt.Errorf("debugfs: %q already exists", cp)
	}
	fs.nodes[cp] = &node{read: read, write: write}
	return nil
}

// Remove unregisters the node at path.
func (fs *FS) Remove(path string) error {
	cp := clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.nodes[cp]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, cp)
	}
	delete(fs.nodes, cp)
	return nil
}

// ReadFile runs the read handler of the node at path.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	cp := clean(path)
	fs.mu.RLock()
	n, ok := fs.nodes[cp]
	fs.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, cp)
	}
	if n.read == nil {
		return nil, fmt.Errorf("%w: %q is write-only", ErrNotSupported, cp)
	}
	return n.read()
}

// WriteFile runs the write handler of the node at path.
func (fs *FS) WriteFile(path string, data []byte) error {
	cp := clean(path)
	fs.mu.RLock()
	n, ok := fs.nodes[cp]
	fs.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, cp)
	}
	if n.write == nil {
		return fmt.Errorf("%w: %q is read-only", ErrNotSupported, cp)
	}
	return n.write(data)
}

// Exists reports whether a node is registered at path.
func (fs *FS) Exists(path string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.nodes[clean(path)]
	return ok
}
