package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/value"
)

// span is one timed interval of a traced pass. Spans of one generated
// op share Op; Parent is the id of the span that caused this one (0 for
// an op's root span). Times are nanoseconds since the tracer started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a pass in memory; write dumps them when
// the pass is over, so tracing never does I/O while it measures. The
// traced passes are single-client, so "the op in flight" is one value:
// device and call spans hang off it.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	on     atomic.Bool // spans are kept only while set (not during set-up)
	nextID atomic.Uint64
	curOp  atomic.Uint64 // root span id of the op in flight
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp opens the root span of the next generated op.
func (t *tracer) beginOp() (id uint64, start int64) {
	id = t.nextID.Add(1)
	t.curOp.Store(id)
	return id, t.now()
}

func (t *tracer) endOp(id uint64, name string, start int64) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Op: id, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// child records a finished span under the op in flight.
func (t *tracer) child(name string, start, end int64) {
	if !t.on.Load() {
		return
	}
	op := t.curOp.Load()
	id := t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: op, Op: op, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// devOp indexes the four device calls the decorator counts and times.
type devOp int

const (
	devRead devOp = iota
	devWrite
	devSync
	devExtend
	numDevOps
)

var devOpNames = [numDevOps]string{"device.ReadPage", "device.WritePage", "device.Sync", "device.Extend"}

// timedDevice decorates the volume's device manager (precedent:
// device.Recorder) to count and time the four calls that reach the
// backing file. It is registered in the switch in place of the
// FileDisk, so relation I/O and transaction-log I/O both pass through.
type timedDevice struct {
	device.Manager
	tr    *tracer
	calls [numDevOps]atomic.Int64
	ns    [numDevOps]atomic.Int64
}

func (d *timedDevice) timed(op devOp, f func() error) error {
	start := d.tr.now()
	err := f()
	end := d.tr.now()
	d.calls[op].Add(1)
	d.ns[op].Add(end - start)
	d.tr.child(devOpNames[op], start, end)
	return err
}

func (d *timedDevice) ReadPage(rel device.OID, page uint32, buf []byte) error {
	return d.timed(devRead, func() error { return d.Manager.ReadPage(rel, page, buf) })
}

func (d *timedDevice) WritePage(rel device.OID, page uint32, buf []byte) error {
	return d.timed(devWrite, func() error { return d.Manager.WritePage(rel, page, buf) })
}

func (d *timedDevice) Sync() error { return d.timed(devSync, d.Manager.Sync) }

func (d *timedDevice) Extend(rel device.OID) (page uint32, err error) {
	err = d.timed(devExtend, func() error {
		page, err = d.Manager.Extend(rel)
		return err
	})
	return page, err
}

// spanConn records a span around every call made on the wrapped
// connection and counts the calls. prefix names the layer the calls
// enter: "wire" over TCP, "core" in-process.
type spanConn struct {
	inner  fsConn
	tr     *tracer
	prefix string
	calls  int64
}

func (s *spanConn) do(name string, f func() error) error {
	start := s.tr.now()
	err := f()
	s.tr.child(s.prefix+"."+name, start, s.tr.now())
	s.calls++
	return err
}

func (s *spanConn) Begin() error  { return s.do("Begin", s.inner.Begin) }
func (s *spanConn) Commit() error { return s.do("Commit", s.inner.Commit) }
func (s *spanConn) Creat(path string) (fd int, err error) {
	err = s.do("Creat", func() error { fd, err = s.inner.Creat(path); return err })
	return fd, err
}
func (s *spanConn) Open(path string, write bool) (fd int, err error) {
	err = s.do("Open", func() error { fd, err = s.inner.Open(path, write); return err })
	return fd, err
}
func (s *spanConn) Close(fd int) error {
	return s.do("Close", func() error { return s.inner.Close(fd) })
}
func (s *spanConn) Seek(fd int, off int64) error {
	return s.do("Seek", func() error { return s.inner.Seek(fd, off) })
}
func (s *spanConn) Read(fd int, buf []byte) (n int, err error) {
	err = s.do("Read", func() error { n, err = s.inner.Read(fd, buf); return err })
	return n, err
}
func (s *spanConn) Write(fd int, p []byte) (n int, err error) {
	err = s.do("Write", func() error { n, err = s.inner.Write(fd, p); return err })
	return n, err
}
func (s *spanConn) Mkdir(path string) error {
	return s.do("Mkdir", func() error { return s.inner.Mkdir(path) })
}
func (s *spanConn) Stat(path string) (size int64, err error) {
	err = s.do("Stat", func() error { size, err = s.inner.Stat(path); return err })
	return size, err
}
func (s *spanConn) Rename(o, n string) error {
	return s.do("Rename", func() error { return s.inner.Rename(o, n) })
}
func (s *spanConn) Unlink(path string) error {
	return s.do("Unlink", func() error { return s.inner.Unlink(path) })
}
func (s *spanConn) ReadDir(path string) (names []string, err error) {
	err = s.do("ReadDir", func() error { names, err = s.inner.ReadDir(path); return err })
	return names, err
}
func (s *spanConn) Query(q string) (rows [][]value.V, err error) {
	err = s.do("Query", func() error { rows, err = s.inner.Query(q); return err })
	return rows, err
}
