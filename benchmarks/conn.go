package main

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/value"
	"repro/internal/wire"
)

// fsConn is the file-system surface the workloads drive. It has two
// implementations so one generated schedule can run on both paths the
// paper measures: wireConn (the client library over TCP) and localConn
// (a core.Session inside the server process, the single-process
// column of Table 3). Descriptors are plain ints on both.
type fsConn interface {
	Begin() error
	Commit() error
	Creat(path string) (int, error)
	Open(path string, write bool) (int, error)
	Close(fd int) error
	Seek(fd int, off int64) error
	Read(fd int, buf []byte) (int, error)
	Write(fd int, p []byte) (int, error)
	Mkdir(path string) error
	Stat(path string) (size int64, err error)
	Rename(oldPath, newPath string) error
	Unlink(path string) error
	ReadDir(path string) ([]string, error)
	Query(q string) ([][]value.V, error)
}

// wireConn drives a served volume through the client library.
type wireConn struct{ c *wire.Client }

func (w wireConn) Begin() error  { return w.c.PBegin() }
func (w wireConn) Commit() error { return w.c.PCommit() }
func (w wireConn) Creat(path string) (int, error) {
	fd, err := w.c.PCreat(path, core.CreateOpts{})
	return int(fd), err
}
func (w wireConn) Open(path string, write bool) (int, error) {
	fd, err := w.c.POpen(path, write, 0)
	return int(fd), err
}
func (w wireConn) Close(fd int) error { return w.c.PClose(wire.FD(fd)) }
func (w wireConn) Seek(fd int, off int64) error {
	_, err := w.c.PLseek(wire.FD(fd), off, wire.SeekSet)
	return err
}
func (w wireConn) Read(fd int, buf []byte) (int, error) { return w.c.PRead(wire.FD(fd), buf) }
func (w wireConn) Write(fd int, p []byte) (int, error)  { return w.c.PWrite(wire.FD(fd), p) }
func (w wireConn) Mkdir(path string) error              { return w.c.Mkdir(path) }
func (w wireConn) Stat(path string) (int64, error) {
	a, err := w.c.Stat(path, 0)
	return a.Size, err
}
func (w wireConn) Rename(o, n string) error { return w.c.Rename(o, n) }
func (w wireConn) Unlink(path string) error { return w.c.Unlink(path) }
func (w wireConn) ReadDir(path string) ([]string, error) {
	ents, err := w.c.ReadDir(path, 0)
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name
	}
	return names, err
}
func (w wireConn) Query(q string) ([][]value.V, error) {
	res, err := w.c.Query(q)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// localConn runs the same calls on a core.Session in-process, keeping
// the descriptor table the wire server would keep.
type localConn struct {
	s     *core.Session
	eng   *query.Engine
	files map[int]*core.File
	next  int
}

func newLocalConn(db *core.DB, owner string) *localConn {
	return &localConn{s: db.NewSession(owner), eng: query.New(db), files: make(map[int]*core.File)}
}

func (l *localConn) add(f *core.File, err error) (int, error) {
	if err != nil {
		return -1, err
	}
	l.next++
	l.files[l.next] = f
	return l.next, nil
}

func (l *localConn) file(fd int) (*core.File, error) {
	f, ok := l.files[fd]
	if !ok {
		return nil, fmt.Errorf("bench: bad fd %d", fd)
	}
	return f, nil
}

func (l *localConn) Begin() error { return l.s.Begin() }
func (l *localConn) Commit() error {
	// Like the server: commit closes every descriptor of the bracket.
	err := l.s.Commit()
	l.files = make(map[int]*core.File)
	return err
}
func (l *localConn) Creat(path string) (int, error) {
	return l.add(l.s.Create(path, core.CreateOpts{}))
}
func (l *localConn) Open(path string, write bool) (int, error) {
	if write {
		return l.add(l.s.OpenWrite(path))
	}
	return l.add(l.s.Open(path))
}
func (l *localConn) Close(fd int) error {
	f, err := l.file(fd)
	if err != nil {
		return err
	}
	delete(l.files, fd)
	return f.Close()
}
func (l *localConn) Seek(fd int, off int64) error {
	f, err := l.file(fd)
	if err != nil {
		return err
	}
	_, err = f.Seek(off, io.SeekStart)
	return err
}
func (l *localConn) Read(fd int, buf []byte) (int, error) {
	f, err := l.file(fd)
	if err != nil {
		return 0, err
	}
	n, err := f.Read(buf)
	if err == io.EOF && n > 0 {
		err = nil
	}
	return n, err
}
func (l *localConn) Write(fd int, p []byte) (int, error) {
	f, err := l.file(fd)
	if err != nil {
		return 0, err
	}
	return f.Write(p)
}
func (l *localConn) Mkdir(path string) error { return l.s.Mkdir(path) }
func (l *localConn) Stat(path string) (int64, error) {
	a, err := l.s.Stat(path)
	return a.Size, err
}
func (l *localConn) Rename(o, n string) error { return l.s.Rename(o, n) }
func (l *localConn) Unlink(path string) error { return l.s.Unlink(path) }
func (l *localConn) ReadDir(path string) ([]string, error) {
	ents, err := l.s.ReadDir(path)
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name
	}
	return names, err
}
func (l *localConn) Query(q string) ([][]value.V, error) {
	res, err := l.eng.Run(l.s, q)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}
