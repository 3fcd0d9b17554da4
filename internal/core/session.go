package core

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/txn"
)

// ErrReaped is returned by Commit or Abort after the session's
// transaction was aborted from outside — the server's idle-session
// reaper released its locks because the connection went quiet. The
// application should re-run the transaction.
var ErrReaped = errors.New("inversion: transaction aborted: idle session reaped")

// Session is one client of the file system, holding at most one active
// transaction ("a single application program may only have one
// transaction active at any time"). Operations outside an explicit
// Begin/Commit bracket run in their own short transactions
// (autocommit), which is exactly how NFS clients would behave per the
// paper's discussion of NFS access.
type Session struct {
	db    *DB
	owner string

	mu     sync.Mutex
	tx     *txn.Tx
	open   map[*File]bool
	reaped bool // tx was externally aborted; surfaced once via Commit/Abort
}

// NewSession opens a session for the given owner.
func (db *DB) NewSession(owner string) *Session {
	return &Session{db: db, owner: owner, open: make(map[*File]bool)}
}

// DB exposes the underlying database.
func (s *Session) DB() *DB { return s.db }

// Begin starts an explicit transaction (p_begin).
func (s *Session) Begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx != nil {
		return txn.ErrNestedTx
	}
	tx, err := s.db.mgr.Begin()
	if err != nil {
		return err
	}
	s.tx = tx
	s.reaped = false
	obs.Active().SetTxn(uint64(tx.ID()))
	return nil
}

// InTx reports whether an explicit transaction is active.
func (s *Session) InTx() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tx != nil
}

// Commit commits the explicit transaction (p_commit), first closing any
// files still open under it so their buffered writes and metadata reach
// the database.
func (s *Session) Commit() error {
	s.mu.Lock()
	tx := s.tx
	s.tx = nil
	wasReaped := s.reaped
	s.reaped = false
	files := make([]*File, 0, len(s.open))
	for f := range s.open {
		files = append(files, f)
	}
	s.open = make(map[*File]bool)
	s.mu.Unlock()
	if tx == nil {
		if wasReaped {
			return ErrReaped
		}
		return errors.New("inversion: no transaction in progress")
	}
	for _, f := range files {
		if err := f.Close(); err != nil && !errors.Is(err, ErrClosed) {
			abortErr := tx.Abort()
			if abortErr != nil {
				return errors.Join(err, abortErr)
			}
			return err
		}
	}
	return tx.Commit()
}

// Abort rolls the explicit transaction back (p_abort). Open files are
// invalidated; their writes never happened.
func (s *Session) Abort() error {
	s.mu.Lock()
	tx := s.tx
	s.tx = nil
	wasReaped := s.reaped
	s.reaped = false
	for f := range s.open {
		f.closed = true
	}
	s.open = make(map[*File]bool)
	s.mu.Unlock()
	if tx == nil {
		if wasReaped {
			return ErrReaped
		}
		return errors.New("inversion: no transaction in progress")
	}
	return tx.Abort()
}

// AbortExternal aborts the session's active transaction from outside
// its owning request loop: the wire server's idle-session reaper and
// shutdown path use it to release a dead client's locks. Open files are
// invalidated, and the session is marked reaped so the next Commit or
// Abort surfaces ErrReaped (Begin clears the mark). It reports whether
// a transaction was actually aborted.
//
// The caller must guarantee no operation on this session runs
// concurrently — the server only reaps connections with no request in
// flight. A session blocked inside a lock wait is safe: releasing the
// transaction's locks unblocks the wait with txn.ErrLockAborted.
func (s *Session) AbortExternal() bool {
	s.mu.Lock()
	tx := s.tx
	s.tx = nil
	if tx == nil {
		s.mu.Unlock()
		return false
	}
	s.reaped = true
	for f := range s.open {
		f.closed = true
	}
	s.open = make(map[*File]bool)
	s.mu.Unlock()
	// The abort may lose the race with a concurrent Commit/Abort that
	// was already past the session check; the claim inside Tx decides.
	return tx.Abort() == nil
}

// Reaped reports whether the session's transaction was externally
// aborted and the fact not yet surfaced to the application.
func (s *Session) Reaped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reaped
}

// Snapshot returns the session's read view: the transaction's snapshot
// inside a transaction, the latest committed state otherwise.
func (s *Session) Snapshot() *txn.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx != nil {
		return s.tx.Snapshot()
	}
	return s.db.mgr.CurrentSnapshot()
}

// ensureTx returns the active transaction, or starts an implicit one;
// implicit reports which. done(err) finishes an implicit transaction.
func (s *Session) ensureTx() (tx *txn.Tx, implicit bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx != nil {
		obs.Active().SetTxn(uint64(s.tx.ID()))
		return s.tx, false, nil
	}
	tx, err = s.db.mgr.Begin()
	if err == nil {
		obs.Active().SetTxn(uint64(tx.ID()))
	}
	return tx, true, err
}

func finish(tx *txn.Tx, implicit bool, err error) error {
	if !implicit {
		return err
	}
	if err != nil {
		if aerr := tx.Abort(); aerr != nil {
			return errors.Join(err, aerr)
		}
		return err
	}
	return tx.Commit()
}

// track registers an open file with the session so Commit can flush it;
// the file's close hook untracks it.
func (s *Session) track(f *File, implicitTx bool) *File {
	if implicitTx {
		// Closing the file commits its private transaction.
		tx := f.tx
		f.closeHook = func(err error) error {
			if err != nil {
				if aerr := tx.Abort(); aerr != nil {
					return errors.Join(err, aerr)
				}
				return err
			}
			return tx.Commit()
		}
		return f
	}
	s.mu.Lock()
	s.open[f] = true
	s.mu.Unlock()
	f.closeHook = func(err error) error {
		s.mu.Lock()
		delete(s.open, f)
		s.mu.Unlock()
		return err
	}
	return f
}

// CreateOpts configures Create.
type CreateOpts struct {
	Type  string // file type (must be defined); "" = untyped
	Class string // device class; "" = database default
	Flags uint32 // FlagCompressed, FlagNoHistory
}

// Create creates a new file (p_creat) and opens it for writing. Outside
// an explicit transaction the file gets its own transaction, committed
// by Close.
func (s *Session) Create(path string, opts CreateOpts) (*File, error) {
	tx, implicit, err := s.ensureTx()
	if err != nil {
		return nil, err
	}
	f, err := s.db.CreateTx(tx, path, s.owner, opts.Type, opts.Class, opts.Flags)
	if err != nil {
		return nil, finish(tx, implicit, err)
	}
	return s.track(f, implicit), nil
}

// Open opens a file read-only (p_open with timestamp 0).
func (s *Session) Open(path string) (*File, error) { return s.open2(path, false) }

// OpenWrite opens a file for reading and writing.
func (s *Session) OpenWrite(path string) (*File, error) { return s.open2(path, true) }

func (s *Session) open2(path string, write bool) (*File, error) {
	tx, implicit, err := s.ensureTx()
	if err != nil {
		return nil, err
	}
	f, err := s.db.OpenTx(tx, path, write)
	if err != nil {
		return nil, finish(tx, implicit, err)
	}
	return s.track(f, implicit), nil
}

// OpenAsOf opens a historical version of a file (p_open with a
// timestamp): the file exactly as it was at time asof.
func (s *Session) OpenAsOf(path string, asof int64) (*File, error) {
	return s.db.OpenAsOf(path, asof)
}

// Mkdir creates a directory.
func (s *Session) Mkdir(path string) error {
	tx, implicit, err := s.ensureTx()
	if err != nil {
		return err
	}
	_, err = s.db.MkdirTx(tx, path, s.owner)
	return finish(tx, implicit, err)
}

// MkdirAll creates a directory and any missing parents.
func (s *Session) MkdirAll(path string) error {
	parts, err := SplitPath(path)
	if err != nil {
		return err
	}
	cur := ""
	for _, p := range parts {
		cur += "/" + p
		if err := s.Mkdir(cur); err != nil && !errors.Is(err, ErrExist) {
			return err
		}
	}
	return nil
}

// Unlink removes a file or empty directory.
func (s *Session) Unlink(path string) error {
	tx, implicit, err := s.ensureTx()
	if err != nil {
		return err
	}
	return finish(tx, implicit, s.db.UnlinkTx(tx, path))
}

// Rename moves a file or directory.
func (s *Session) Rename(oldPath, newPath string) error {
	tx, implicit, err := s.ensureTx()
	if err != nil {
		return err
	}
	return finish(tx, implicit, s.db.RenameTx(tx, oldPath, newPath))
}

// Stat reports a file's attributes.
func (s *Session) Stat(path string) (FileAttr, error) {
	snap := s.Snapshot()
	oid, err := s.db.Resolve(snap, path)
	if err != nil {
		return FileAttr{}, err
	}
	attr, _, err := s.db.getAttr(snap, oid)
	return attr, err
}

// StatAsOf reports a file's attributes as of a moment in the past.
func (s *Session) StatAsOf(path string, asof int64) (FileAttr, error) {
	snap := s.db.mgr.AsOf(asof)
	oid, err := s.db.Resolve(snap, path)
	if err != nil {
		return FileAttr{}, err
	}
	attr, _, err := s.db.getAttr(snap, oid)
	return attr, err
}

// ReadDir lists a directory.
func (s *Session) ReadDir(path string) ([]DirEntry, error) {
	snap := s.Snapshot()
	oid, err := s.db.Resolve(snap, path)
	if err != nil {
		return nil, err
	}
	return s.db.ReadDir(snap, oid)
}

// ReadDirAsOf lists a directory as it was at time asof.
func (s *Session) ReadDirAsOf(path string, asof int64) ([]DirEntry, error) {
	snap := s.db.mgr.AsOf(asof)
	oid, err := s.db.Resolve(snap, path)
	if err != nil {
		return nil, err
	}
	return s.db.ReadDir(snap, oid)
}

// WriteFile creates (or replaces) a file with the given contents in one
// transaction.
func (s *Session) WriteFile(path string, data []byte, opts CreateOpts) error {
	tx, implicit, err := s.ensureTx()
	if err != nil {
		return err
	}
	err = func() error {
		f, err := s.db.CreateTx(tx, path, s.owner, opts.Type, opts.Class, opts.Flags)
		if errors.Is(err, ErrExist) {
			f, err = s.db.OpenTx(tx, path, true)
			if err != nil {
				return err
			}
			if err := f.Truncate(0); err != nil {
				return err
			}
		} else if err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			return err
		}
		return f.Close()
	}()
	return finish(tx, implicit, err)
}

// ReadFile reads a whole file.
func (s *Session) ReadFile(path string) ([]byte, error) {
	tx, implicit, err := s.ensureTx()
	if err != nil {
		return nil, err
	}
	var data []byte
	err = func() error {
		f, err := s.db.OpenTx(tx, path, false)
		if err != nil {
			return err
		}
		data = make([]byte, f.Size())
		if _, err := io.ReadFull(f, data); err != nil && err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) {
			return err
		}
		return f.Close()
	}()
	if err := finish(tx, implicit, err); err != nil {
		return nil, err
	}
	return data, nil
}

// ReadFileAsOf reads a whole historical file.
func (s *Session) ReadFileAsOf(path string, asof int64) ([]byte, error) {
	f, err := s.db.OpenAsOf(path, asof)
	if err != nil {
		return nil, err
	}
	data := make([]byte, f.Size())
	if len(data) > 0 {
		if _, err := io.ReadFull(f, data); err != nil && err != io.EOF {
			return nil, err
		}
	}
	return data, f.Close()
}

// DefineType declares a new file type (the paper's "define type").
func (s *Session) DefineType(name, doc string) error {
	tx, implicit, err := s.ensureTx()
	if err != nil {
		return err
	}
	return finish(tx, implicit, s.db.cat.DefineType(tx, catalog.TypeInfo{Name: name, Doc: doc}))
}

// DeclareFunction records a function declaration in the catalog without
// an implementation (POSTQUEL's "define function"; the implementation
// is registered in-process with DB.RegisterFunc).
func (s *Session) DeclareFunction(fi catalog.FuncInfo) error {
	tx, implicit, err := s.ensureTx()
	if err != nil {
		return err
	}
	if fi.Lang == "" {
		fi.Lang = "go"
	}
	return finish(tx, implicit, s.db.cat.DefineFunction(tx, fi))
}

// DefineFunction declares a function over a file type and registers its
// implementation (the Go analogue of "define function" plus dynamic
// loading).
func (s *Session) DefineFunction(fi catalog.FuncInfo, impl FileFunc) error {
	if err := s.DeclareFunction(fi); err != nil {
		return err
	}
	s.db.RegisterFunc(fi.Name, impl)
	return nil
}

// Call invokes a registered function on a file and returns its value.
func (s *Session) Call(funcName, path string) (v Value, err error) {
	snap := s.Snapshot()
	oid, err := s.db.Resolve(snap, path)
	if err != nil {
		return Value{}, err
	}
	return s.db.CallFunc(snap, funcName, oid)
}

// SetFileType retypes a file (type checking applies from then on).
func (s *Session) SetFileType(path, fileType string) error {
	tx, implicit, err := s.ensureTx()
	if err != nil {
		return err
	}
	err = func() error {
		if fileType != "" {
			if _, ok := s.db.cat.Type(fileType); !ok {
				return fmt.Errorf("inversion: file type %q is not defined", fileType)
			}
		}
		snap := s.db.writeSnap(tx)
		oid, err := s.db.Resolve(snap, path)
		if err != nil {
			return err
		}
		if err := tx.Lock(txn.LockTag{Space: txn.SpaceRelation, Rel: oid}, txn.LockExclusive); err != nil {
			return err
		}
		return s.db.updateAttr(tx, s.db.writeSnap(tx), oid, func(a *FileAttr) { a.Type = fileType })
	}()
	return finish(tx, implicit, err)
}

// Migrate moves a file's chunk table and index to another device class,
// the primitive under the rules-driven migration service. The file is
// locked exclusively for the duration so no session-level reader or
// writer sees it mid-move.
func (s *Session) Migrate(path, class string) error {
	tx, implicit, err := s.ensureTx()
	if err != nil {
		return err
	}
	err = func() error {
		snap := s.db.writeSnap(tx)
		oid, err := s.db.Resolve(snap, path)
		if err != nil {
			return err
		}
		if err := tx.Lock(txn.LockTag{Space: txn.SpaceRelation, Rel: oid}, txn.LockExclusive); err != nil {
			return err
		}
		attr, _, err := s.db.getAttr(snap, oid)
		if err != nil {
			return err
		}
		if attr.IsDir() {
			return ErrIsDirectory
		}
		return s.db.MigrateFile(oid, attr, class)
	}()
	return finish(tx, implicit, err)
}

// Owner reports the session's owner name.
func (s *Session) Owner() string { return s.owner }
