package core

import "os"

// Fault-injection seam for the snapshot filesystem path.
//
// Every filesystem operation SaveDir/LoadDir performs — directory
// creation, temp-file creation, buffered writes, fsync, close, rename,
// removal, directory sync, directory listing, file reads — funnels
// through the fs* wrappers below, which consult fsFault before touching
// the real filesystem. Tests install a hook that fails a chosen
// operation (a transient error) or every operation from a chosen point
// on (a simulated crash: the process "dies" mid-save and even cleanup
// stops happening), then prove the directory invariants hold at every
// single step: the previous snapshot stays loadable, no partial
// directory is ever observable, and every surfaced failure is a typed
// *SnapshotError. Production never sets the hook; the nil check is the
// only cost.
type fsOp uint8

const (
	opMkdirAll fsOp = iota
	opCreateTemp
	opWrite
	opSync
	opClose
	opRename
	opRemove
	opSyncDir
	opReadDir
	opReadFile
)

// opNames is indexed by fsOp, for failure-matrix test output.
var opNames = [...]string{
	opMkdirAll:   "mkdirall",
	opCreateTemp: "createtemp",
	opWrite:      "write",
	opSync:       "sync",
	opClose:      "close",
	opRename:     "rename",
	opRemove:     "remove",
	opSyncDir:    "syncdir",
	opReadDir:    "readdir",
	opReadFile:   "readfile",
}

func (op fsOp) String() string { return opNames[op] }

// fsFault, when non-nil, may veto any snapshot-path filesystem
// operation by returning an error; the operation is then never
// attempted. Tests install it; it must be nil whenever snapshot
// operations can run concurrently.
var fsFault func(op fsOp, path string) error

func fsCheck(op fsOp, path string) error {
	if fsFault != nil {
		return fsFault(op, path)
	}
	return nil
}

func fsMkdirAll(path string, perm os.FileMode) error {
	if err := fsCheck(opMkdirAll, path); err != nil {
		return err
	}
	return os.MkdirAll(path, perm)
}

// fsCreateTemp creates a temp file that every snapshot file is renamed
// from, readable by every user like the 0755 directory it lands in:
// os.CreateTemp makes it 0600, and Chmod sets 0644 past the umask.
func fsCreateTemp(dir, pattern string) (*os.File, error) {
	if err := fsCheck(opCreateTemp, dir); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return f, nil
}

func fsWrite(f *os.File, b []byte) (int, error) {
	if err := fsCheck(opWrite, f.Name()); err != nil {
		return 0, err
	}
	return f.Write(b)
}

func fsSync(f *os.File) error {
	if err := fsCheck(opSync, f.Name()); err != nil {
		return err
	}
	return f.Sync()
}

func fsClose(f *os.File) error {
	if err := fsCheck(opClose, f.Name()); err != nil {
		// A vetoed close still closes the descriptor: a real crashed
		// process leaks no fds, and neither may a simulated one.
		f.Close()
		return err
	}
	return f.Close()
}

func fsRename(oldpath, newpath string) error {
	if err := fsCheck(opRename, newpath); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}

func fsRemove(path string) error {
	if err := fsCheck(opRemove, path); err != nil {
		return err
	}
	return os.Remove(path)
}

func fsReadDir(dir string) ([]os.DirEntry, error) {
	if err := fsCheck(opReadDir, dir); err != nil {
		return nil, err
	}
	return os.ReadDir(dir)
}

func fsReadFile(path string) ([]byte, error) {
	if err := fsCheck(opReadFile, path); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// faultFile routes a file's writes through the seam so buffered writers
// (the segment writer's bufio.Writer) hit injected faults too.
type faultFile struct{ f *os.File }

func (w faultFile) Write(b []byte) (int, error) { return fsWrite(w.f, b) }
