package wire

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rowenc"
	"repro/internal/sysview"
	"repro/internal/value"
)

// Lifecycle defaults; zero fields in ServerConfig take these values.
const (
	DefaultIdleTimeout = 2 * time.Minute
	DefaultGracePeriod = 5 * time.Second
)

// writeTimeout bounds one response write, so a stalled client that
// stops reading cannot wedge its handler goroutine.
const writeTimeout = 30 * time.Second

// traceRingSize is how many of the slowest recent requests the trace
// ring behind inv_traces and /traces/recent keeps.
const traceRingSize = 32

// ServerConfig tunes the server's connection lifecycle.
type ServerConfig struct {
	// IdleTimeout is how long a connection with an open transaction may
	// stay silent before the reaper aborts the transaction, releasing
	// its locks. A connection that stays silent for twice the timeout is
	// dropped (the read deadline enforces this), so a kill -9'd client
	// cannot pin its locks or its connection. Idle connections with no
	// transaction hold no locks and are left alone.
	IdleTimeout time.Duration
	// GracePeriod bounds Close: idle connections close at once, and
	// in-flight requests get this long to drain before every connection
	// is force-closed.
	GracePeriod time.Duration
	// SlowOp is the slow-operation threshold. Zero keeps the trace ring
	// fed with the slowest requests but logs nothing; a positive value
	// additionally logs every request whose handling took at least this
	// long, with its per-layer attribution.
	SlowOp time.Duration
	// PanicHook, if set, runs after a handler panic has been recovered
	// and logged, with the op name and the recovered value. invd uses it
	// to dump the flight recorder, so the crash bundle is written while
	// the timeline still ends at the panicking op.
	PanicHook func(op string, recovered any)
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.GracePeriod <= 0 {
		c.GracePeriod = DefaultGracePeriod
	}
	return c
}

// Server serves the Inversion protocol over TCP. Each connection gets
// its own Session (one transaction at a time) and file descriptor
// table.
type Server struct {
	db   *core.DB
	eng  *query.Engine
	cfg  ServerConfig
	logf func(format string, args ...any)
	wg   sync.WaitGroup
	quit chan struct{}

	// closed is set once, by Close; a connection reads it each time it
	// is about to wait for a request.
	closed atomic.Bool

	mu    sync.Mutex
	ln    net.Listener
	conns map[*serverConn]struct{}

	// Observability: one latency histogram per opcode plus request and
	// outcome counters, all resolved once at construction; the trace
	// ring keeps the slowest recent requests for /traces/recent.
	ring     *obs.TraceRing
	opNs     [256]*obs.Histogram
	devSimNs *obs.Histogram
	requests *obs.Counter
	errs     *obs.Counter
	panics   *obs.Counter
	reapedRq *obs.Counter
	bytesIn  *obs.Counter
	bytesOut *obs.Counter

	// testHook, when set before Listen, runs at the top of every request
	// handler; tests use it to inject handler panics.
	testHook func(op byte, payload []byte)
}

// serverConn tracks one live connection. Its mutex serialises the three
// goroutines that may touch the session from outside a request: the
// connection's own loop, the idle reaper, and shutdown.
type serverConn struct {
	conn net.Conn
	st   *connState

	mu         sync.Mutex
	busy       bool // a request is being handled right now
	reaped     bool // tx aborted by the reaper; answer the next request with ErrReaped
	lastActive time.Time
}

// NewServer returns a server for db with default lifecycle settings.
func NewServer(db *core.DB) *Server { return NewServerWith(db, ServerConfig{}) }

// NewServerWith returns a server for db with explicit lifecycle
// settings.
func NewServerWith(db *core.DB, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:    db,
		eng:   query.New(db),
		cfg:   cfg,
		logf:  log.Printf,
		conns: make(map[*serverConn]struct{}),
		ring:  obs.NewTraceRing(traceRingSize),
	}
	reg := db.Obs()
	for op := OpBegin; op <= OpWaitProfile; op++ {
		s.opNs[op] = reg.Histogram("wire.op." + OpName(op) + "_ns")
	}
	s.devSimNs = reg.Histogram("device.sim_ns")
	s.requests = reg.Counter("wire.requests")
	s.errs = reg.Counter("wire.errors")
	s.panics = reg.Counter("wire.panics")
	s.reapedRq = reg.Counter("wire.reaped_replies")
	s.bytesIn = reg.Counter("wire.bytes_in")
	s.bytesOut = reg.Counter("wire.bytes_out")
	// The slow-request ring lives on the server, not the DB, so the
	// inv_traces catalog is registered here rather than in core.Open.
	db.SysViews().Register(sysview.NewTraces(s.ring))
	return s
}

// Traces exposes the server's recent-traces ring (the HTTP endpoint
// serves it).
func (s *Server) Traces() *obs.TraceRing { return s.ring }

// SetLogf overrides the server's logger (tests silence it).
func (s *Server) SetLogf(f func(string, ...any)) { s.logf = f }

// Listen binds the address and begins accepting connections in the
// background. It returns the bound address (addr may use port 0).
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.quit = make(chan struct{})
	s.mu.Unlock()
	s.wg.Add(2)
	go s.acceptLoop(ln)
	go s.reapLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !s.closed.Load() {
				s.logf("inversion: accept: %v", err)
			}
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// reapLoop periodically aborts transactions whose connection has gone
// quiet past the idle timeout, so a dead client's locks are released
// long before TCP notices the peer is gone.
func (s *Server) reapLoop() {
	defer s.wg.Done()
	interval := s.cfg.IdleTimeout / 4
	if interval > time.Second {
		interval = time.Second
	}
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		w := obs.BeginWaitLoop(obs.WaitReaperIdle, "reaper")
		select {
		case <-s.quit:
			w.End()
			return
		case <-t.C:
			w.End()
			s.reapOnce(time.Now())
		}
	}
}

func (s *Server) reapOnce(now time.Time) {
	s.mu.Lock()
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	for _, sc := range conns {
		sc.mu.Lock()
		idle := now.Sub(sc.lastActive)
		if !sc.busy && !sc.reaped && sc.st.sess != nil && sc.st.sess.InTx() &&
			idle > s.cfg.IdleTimeout {
			sc.reaped = true
			if sc.st.sess.AbortExternal() {
				s.logf("inversion: reaped idle transaction (owner %q, idle %v)",
					sc.st.sess.Owner(), idle.Round(time.Millisecond))
			}
		}
		sc.mu.Unlock()
	}
}

// Close stops accepting and shuts down in two bounded phases. An idle
// connection ends at once: its pending read fails and its transaction,
// if any, is aborted. A connection handling a request finishes it,
// sends the reply and ends; such requests get GracePeriod to drain.
// After that every connection is closed, idle transactions are aborted
// (releasing their locks and unblocking any handler stuck in a lock
// wait), and the remaining goroutines get one more GracePeriod before
// Close returns regardless.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	ln := s.ln
	quit := s.quit
	s.mu.Unlock()
	if quit != nil {
		close(quit)
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	// A read deadline in the past fails the pending read without
	// touching a reply still being written. serveConn checks closed
	// after each time it sets a deadline, so this one cannot be lost.
	s.eachConn(func(sc *serverConn) {
		if !sc.busy {
			_ = sc.conn.SetReadDeadline(time.Now())
			if sc.st.sess != nil {
				sc.st.sess.AbortExternal()
			}
		}
	})

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-time.After(s.cfg.GracePeriod):
	}

	s.eachConn(func(sc *serverConn) {
		_ = sc.conn.Close()
		if !sc.busy && sc.st.sess != nil {
			sc.st.sess.AbortExternal()
		}
	})
	select {
	case <-done:
	case <-time.After(s.cfg.GracePeriod):
		s.logf("inversion: shutdown: connections still draining after force-close")
	}
	return err
}

// eachConn runs fn on every open connection under that connection's
// lock.
func (s *Server) eachConn(fn func(sc *serverConn)) {
	s.mu.Lock()
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	for _, sc := range conns {
		sc.mu.Lock()
		fn(sc)
		sc.mu.Unlock()
	}
}

// conn state: a session plus open file table, and the connection's two
// message buffers. in holds the request being handled: a handler may
// read its payload (and rowenc slices of it) only until it returns. out
// is the reply frame, header room first. Both are reused from request
// to request and dropped when a large message has grown them past
// maxKeptBuffer.
type connState struct {
	sess    *core.Session
	files   map[int32]*core.File
	nextFD  int32
	in, out []byte
}

// replyFrame assembles the reply frame for a payload in out.
func (st *connState) replyFrame(payload []byte) []byte {
	st.out = append(beginFrame(st.out), payload...)
	return st.out
}

// sendReply sends one assembled response frame under the write
// deadline.
func (s *Server) sendReply(conn net.Conn, status byte, frame []byte) error {
	_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	err := sendFrame(conn, status, frame)
	_ = conn.SetWriteDeadline(time.Time{})
	return err
}

// sendError answers a request with an error frame.
func (s *Server) sendError(conn net.Conn, st *connState, err error) error {
	return s.sendReply(conn, statusErr, st.replyFrame(errFrame(err)))
}

// trimBuffers lets go of message buffers that a large request or reply
// has grown beyond what an idle connection should hold.
func (sc *serverConn) trimBuffers() {
	st := sc.st
	if cap(st.in) <= maxKeptBuffer && cap(st.out) <= maxKeptBuffer {
		return
	}
	sc.mu.Lock()
	if cap(st.in) > maxKeptBuffer {
		st.in = nil
	}
	if cap(st.out) > maxKeptBuffer {
		st.out = nil
	}
	sc.mu.Unlock()
}

func (s *Server) serveConn(conn net.Conn) {
	sc := &serverConn{conn: conn, lastActive: time.Now()}
	st := &connState{files: make(map[int32]*core.File), nextFD: 3}
	sc.st = st
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[sc] = struct{}{}
	s.mu.Unlock()

	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
		// Serialise final cleanup against the reaper and shutdown so the
		// session and its files are never torn down from two goroutines
		// at once.
		sc.mu.Lock()
		for _, f := range st.files {
			_ = f.Close()
		}
		if st.sess != nil && st.sess.InTx() {
			_ = st.sess.Abort()
		}
		sc.mu.Unlock()
	}()

	// Handshake: first message is the owner name, under a deadline so a
	// connect-and-stall peer cannot hold the goroutine forever.
	_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	if s.closed.Load() {
		return
	}
	kind, payload, err := readFrame(conn, &st.in)
	if err != nil || kind != 0 {
		return
	}
	sess := s.db.NewSession(string(payload))
	sc.mu.Lock()
	st.sess = sess
	sc.mu.Unlock()
	if err := s.sendReply(conn, statusOK, st.replyFrame(nil)); err != nil {
		return
	}

	for {
		sc.trimBuffers()
		// In-transaction connections read under a deadline of twice the
		// idle timeout: the reaper aborts the transaction at one timeout
		// and the deadline drops a connection still silent at two. Idle
		// connections outside a transaction hold no locks and may stay
		// quiet indefinitely.
		if sess.InTx() {
			_ = conn.SetReadDeadline(time.Now().Add(2 * s.cfg.IdleTimeout))
		} else {
			_ = conn.SetReadDeadline(time.Time{})
		}
		if s.closed.Load() {
			return
		}
		op, payload, err := readFrame(conn, &st.in)
		if err != nil {
			var ne net.Error
			switch {
			case s.closed.Load(), errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
			case errors.As(err, &ne) && ne.Timeout():
				s.logf("inversion: dropping silent in-transaction connection (owner %q)", sess.Owner())
			default:
				s.logf("inversion: conn read: %v", err)
			}
			return
		}
		op, payload, tc, hasTC, tcErr := splitTraceCtx(op, payload)
		if tcErr != nil {
			if werr := s.sendError(conn, st, tcErr); werr != nil {
				return
			}
			continue
		}

		sp := obs.NewSpan(OpName(op))
		// Bind the request into a trace: forward the client's context
		// when present, mint a fresh trace otherwise, and name this
		// request with a server-side span id either way.
		if hasTC {
			sp.TraceHi, sp.TraceLo = tc.Hi, tc.Lo
			sp.ParentSpan = tc.Parent
			sp.Attempt = tc.Attempt
			sp.Sampled = tc.Sampled
		} else {
			sp.TraceHi, sp.TraceLo = obs.NewTraceID()
		}
		sp.SpanID = obs.NewSpanID()
		sp.BytesIn = int64(len(payload))
		sp.StartUnixNs = time.Now().UnixNano()
		s.requests.Inc()
		s.bytesIn.Add(sp.BytesIn)

		sc.mu.Lock()
		if sc.reaped {
			sc.reaped = false
			sc.lastActive = time.Now()
			sc.mu.Unlock()
			// The request raced the reaper: its transaction is gone.
			// Tell the client distinctly and keep serving. The span still
			// gets recorded so a reaped burst is visible in the traces.
			sp.SetOutcome("reaped")
			s.reapedRq.Inc()
			s.recordSpan(sp, op)
			if werr := s.sendError(conn, st, core.ErrReaped); werr != nil {
				return
			}
			continue
		}
		sc.busy = true
		sc.mu.Unlock()

		t0 := time.Now()
		frame, panicked, err := s.handleSafe(sp, st, op, payload)
		sp.WallNs.Store(int64(time.Since(t0)))

		sc.mu.Lock()
		sc.busy = false
		sc.lastActive = time.Now()
		sc.mu.Unlock()

		switch {
		case panicked:
			sp.SetOutcome("panic")
			s.panics.Inc()
		case err != nil:
			sp.SetOutcome(fmt.Sprintf("error:%d", errFrame(err)[0]))
			s.errs.Inc()
		default:
			sp.SetOutcome("ok")
			sp.AddBytesOut(int64(len(frame) - frameHeader))
			s.bytesOut.Add(int64(len(frame) - frameHeader))
		}
		s.recordSpan(sp, op)

		if panicked {
			// A poisoned request must not take the process down: answer
			// with an error, then tear this connection down (the deferred
			// cleanup aborts the session's transaction, releasing locks).
			_ = s.sendError(conn, st, err)
			return
		}
		if err != nil {
			if werr := s.sendError(conn, st, err); werr != nil {
				return
			}
			continue
		}
		if err := s.sendReply(conn, statusOK, frame); err != nil {
			return
		}
	}
}

// recordSpan files a finished request span: its wall latency into the
// per-opcode histogram, its simulated-device charge into the shared
// device histogram, the span itself into the trace ring, and — above
// the SlowOp threshold — a structured line into the log with the
// per-layer breakdown that explains where the time went.
func (s *Server) recordSpan(sp *obs.Span, op byte) {
	wall := sp.WallNs.Load()
	s.opNs[op].Observe(wall)
	if d := sp.DevSimNs.Load(); d > 0 {
		s.devSimNs.Observe(d)
	}
	data := sp.Data()
	s.ring.Record(data)
	obs.Flight().RecordSpan(data)
	if s.cfg.SlowOp > 0 && wall >= int64(s.cfg.SlowOp) {
		s.logf("inversion: slow op %s (%s): wall=%s lock=%s load=%s write=%s force=%s devsim=%s txn=%d rel=%q buf=%d/%d h/m",
			data.Op, data.Outcome, obs.FormatNs(wall),
			obs.FormatNs(data.LockWaitNs), obs.FormatNs(data.BufLoadNs),
			obs.FormatNs(data.BufWriteNs), obs.FormatNs(data.CommitNs),
			obs.FormatNs(data.DevSimNs), data.Txn, data.Rel,
			data.BufHits, data.BufMisses)
	}
}

// handleSafe runs one request with its span active, converting a
// handler panic into an error so a single poisoned request cannot kill
// the server process. On success it returns the reply frame, assembled
// in the connection's reply buffer.
func (s *Server) handleSafe(sp *obs.Span, st *connState, op byte, payload []byte) (frame []byte, panicked bool, err error) {
	// The span is active exactly for the handler: every layer below
	// (locks, buffer pool, simulated devices) charges obs.Active().
	// Unbinding is deferred — via Activate(nil), the documented cleanup
	// form — so it runs even when the handler panics: a slot that
	// survived a panic would pin the active-span count above zero and
	// make every charge site in the process pay the goid lookup
	// forever.
	obs.Activate(sp)
	defer obs.Activate(nil)
	defer func() {
		if r := recover(); r != nil {
			s.logf("inversion: handler panic (op %d): %v\n%s", op, r, debug.Stack())
			obs.Flight().RecordMarker("panic", fmt.Sprintf("op %s: %v", OpName(op), r))
			if s.cfg.PanicHook != nil {
				s.cfg.PanicHook(OpName(op), r)
			}
			frame, panicked, err = nil, true, fmt.Errorf("wire: internal server error: %v", r)
		}
	}()
	if s.testHook != nil {
		s.testHook(op, payload)
	}
	if op == OpRead {
		frame, err = handleRead(st, payload)
		return frame, false, err
	}
	resp, err := s.handle(st, op, payload)
	if err != nil {
		return nil, false, err
	}
	if 1+len(resp) > maxMessage {
		// No client would accept the frame: answer with an error the
		// client can match, and keep the connection.
		return nil, false, fmt.Errorf("%w (%d bytes)", ErrReplyTooLarge, len(resp))
	}
	return st.replyFrame(resp), false, nil
}

// handleRead serves OpRead by reading the file straight into the reply
// frame: the chunk bytes are copied once, from their page to the buffer
// that goes on the socket. The frame is sized by what the file can give
// from the descriptor's position on, not by what the client asks for.
func handleRead(st *connState, payload []byte) ([]byte, error) {
	r := rowenc.NewReader(payload)
	fd := int32(r.Uint32())
	n := int64(r.Uint32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	f, ok := st.files[fd]
	if !ok {
		return nil, fmt.Errorf("wire: bad fd %d", fd)
	}
	if n > maxMessage/2 {
		return nil, fmt.Errorf("wire: bad read size %d", n)
	}
	n = max(0, min(n, f.Size()-f.Pos()))
	st.out = slices.Grow(beginFrame(st.out), int(n))
	got, err := f.Read(st.out[frameHeader : frameHeader+int(n)])
	if err != nil && err != io.EOF {
		return nil, err
	}
	st.out = st.out[:frameHeader+got]
	return st.out, nil
}

// The smallest encodings of an attribute record and a value, those
// with every string and list empty. They bound the element counts a
// reply decoder accepts.
const (
	attrWireMin  = 4 + 3*4 + 4*8 + 4     // file, owner/type/class prefixes, size and times, flags
	valueWireMin = 4 + 8 + 8 + 4 + 4 + 4 // kind, int, float, string prefix, bool, list count
)

func encodeAttrWire(a core.FileAttr) []byte {
	return rowenc.NewWriter(96).
		Uint32(uint32(a.File)).String(a.Owner).String(a.Type).
		Int64(a.Size).Int64(a.CTime).Int64(a.MTime).Int64(a.ATime).
		Uint32(a.Flags).String(a.Class).Done()
}

func decodeAttrWire(b []byte) (core.FileAttr, error) {
	r := rowenc.NewReader(b)
	a := core.FileAttr{}
	a.File = oidFrom(r.Uint32())
	a.Owner = r.String()
	a.Type = r.String()
	a.Size = r.Int64()
	a.CTime = r.Int64()
	a.MTime = r.Int64()
	a.ATime = r.Int64()
	a.Flags = r.Uint32()
	a.Class = r.String()
	return a, r.Err()
}

func encodeValue(v value.V) []byte {
	w := rowenc.NewWriter(32).Uint32(uint32(v.Kind)).Int64(v.I)
	w.Uint64(floatBits(v.F)).String(v.S)
	if v.B {
		w.Uint32(1)
	} else {
		w.Uint32(0)
	}
	w.Uint32(uint32(len(v.L)))
	for _, s := range v.L {
		w.String(s)
	}
	return w.Done()
}

func decodeValue(r *rowenc.Reader) (value.V, error) {
	v := value.V{Kind: value.Kind(r.Uint32())}
	v.I = r.Int64()
	v.F = floatFrom(r.Uint64())
	v.S = r.String()
	v.B = r.Uint32() != 0
	n := r.Count(4)
	for i := 0; i < n; i++ {
		v.L = append(v.L, r.String())
	}
	return v, r.Err()
}

func (s *Server) handle(st *connState, op byte, payload []byte) ([]byte, error) {
	r := rowenc.NewReader(payload)
	switch op {
	case OpBegin:
		return nil, st.sess.Begin()
	case OpCommit:
		// Commit invalidates every open descriptor (their files were
		// flushed and closed by the session).
		err := st.sess.Commit()
		st.files = make(map[int32]*core.File)
		return nil, err
	case OpAbort:
		err := st.sess.Abort()
		st.files = make(map[int32]*core.File)
		return nil, err
	case OpCreat:
		path := r.String()
		opts := core.CreateOpts{Type: r.String(), Class: r.String(), Flags: r.Uint32()}
		if err := r.Err(); err != nil {
			return nil, err
		}
		f, err := st.sess.Create(path, opts)
		if err != nil {
			return nil, err
		}
		return st.addFD(f), nil
	case OpOpen:
		path := r.String()
		write := r.Uint32() != 0
		ts := r.Int64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		var f *core.File
		var err error
		switch {
		case ts != 0:
			// "Historical files may not be opened for writing."
			if write {
				return nil, core.ErrHistoricalWr
			}
			f, err = st.sess.OpenAsOf(path, ts)
		case write:
			f, err = st.sess.OpenWrite(path)
		default:
			f, err = st.sess.Open(path)
		}
		if err != nil {
			return nil, err
		}
		return st.addFD(f), nil
	case OpClose:
		fd := int32(r.Uint32())
		if err := r.Err(); err != nil {
			return nil, err
		}
		f, ok := st.files[fd]
		if !ok {
			return nil, fmt.Errorf("wire: bad fd %d", fd)
		}
		delete(st.files, fd)
		return nil, f.Close()
	case OpWrite:
		fd := int32(r.Uint32())
		data := r.Bytes()
		if err := r.Err(); err != nil {
			return nil, err
		}
		f, ok := st.files[fd]
		if !ok {
			return nil, fmt.Errorf("wire: bad fd %d", fd)
		}
		n, err := f.Write(data)
		if err != nil {
			return nil, err
		}
		return rowenc.NewWriter(8).Uint32(uint32(n)).Done(), nil
	case OpLseek:
		fd := int32(r.Uint32())
		off := r.Int64()
		whence := int(r.Uint32())
		if err := r.Err(); err != nil {
			return nil, err
		}
		f, ok := st.files[fd]
		if !ok {
			return nil, fmt.Errorf("wire: bad fd %d", fd)
		}
		pos, err := f.Seek(off, whence)
		if err != nil {
			return nil, err
		}
		return rowenc.NewWriter(8).Int64(pos).Done(), nil
	case OpTruncate:
		fd := int32(r.Uint32())
		size := r.Int64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		f, ok := st.files[fd]
		if !ok {
			return nil, fmt.Errorf("wire: bad fd %d", fd)
		}
		return nil, f.Truncate(size)
	case OpMkdir:
		path := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, st.sess.Mkdir(path)
	case OpUnlink:
		path := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, st.sess.Unlink(path)
	case OpRename:
		oldp, newp := r.String(), r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, st.sess.Rename(oldp, newp)
	case OpStat:
		path := r.String()
		ts := r.Int64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		var attr core.FileAttr
		var err error
		if ts != 0 {
			attr, err = st.sess.StatAsOf(path, ts)
		} else {
			attr, err = st.sess.Stat(path)
		}
		if err != nil {
			return nil, err
		}
		return encodeAttrWire(attr), nil
	case OpReadDir:
		path := r.String()
		ts := r.Int64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		var entries []core.DirEntry
		var err error
		if ts != 0 {
			entries, err = st.sess.ReadDirAsOf(path, ts)
		} else {
			entries, err = st.sess.ReadDir(path)
		}
		if err != nil {
			return nil, err
		}
		w := rowenc.NewWriter(64 * len(entries)).Uint32(uint32(len(entries)))
		for _, e := range entries {
			w.String(e.Name)
			w.Bytes(encodeAttrWire(e.Attr))
		}
		return w.Done(), nil
	case OpQuery:
		q := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		res, err := s.eng.Run(st.sess, q)
		if err != nil {
			return nil, err
		}
		w := rowenc.NewWriter(256).String(res.Message).Uint32(uint32(len(res.Columns)))
		for _, c := range res.Columns {
			w.String(c)
		}
		w.Uint32(uint32(len(res.Rows)))
		for _, row := range res.Rows {
			for _, v := range row {
				w.Bytes(encodeValue(v))
			}
		}
		return w.Done(), nil
	case OpCall:
		fn, path := r.String(), r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		v, err := st.sess.Call(fn, path)
		if err != nil {
			return nil, err
		}
		return encodeValue(v), nil
	case OpDefineType:
		name, doc := r.String(), r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, st.sess.DefineType(name, doc)
	case OpMigrate:
		path, class := r.String(), r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, st.sess.Migrate(path, class)
	case OpVacuum:
		stats, err := s.db.Vacuum()
		if err != nil {
			return nil, err
		}
		return rowenc.NewWriter(32).
			Uint32(uint32(stats.Relations)).
			Uint32(uint32(stats.Scanned)).
			Uint32(uint32(stats.Archived)).
			Uint32(uint32(stats.Removed)).Done(), nil
	case OpSetType:
		path, typ := r.String(), r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, st.sess.SetFileType(path, typ)
	case OpStatsV2:
		// The full registry snapshot: counters, gauges, and latency
		// histograms from every layer, each read where it lives.
		return obs.EncodeSnapshot(s.db.Obs().Snapshot()), nil
	case OpWaitProfile:
		// The accumulated wait-event profile (empty when no sampler is
		// configured), so client tooling can ask "what has the server
		// been waiting on" without scraping HTTP.
		return obs.EncodeWaitProfile(s.db.WaitProfile()), nil
	case OpScrub:
		// The full integrity pass (media, B-trees, namespace, chunks,
		// txn log), exposed as an operator command.
		rep, err := s.db.Scrub()
		if err != nil {
			return nil, err
		}
		w := rowenc.NewWriter(256).
			Uint32(uint32(rep.Media.Relations)).
			Uint32(uint32(rep.Media.PagesChecked)).
			Uint32(uint32(rep.IndexesChecked)).
			Uint32(uint32(rep.FilesChecked)).
			Uint32(uint32(rep.ChunksChecked)).
			Uint32(uint32(len(rep.Media.Corrupt)))
		for _, c := range rep.Media.Corrupt {
			w.String(c.String())
		}
		w.Uint32(uint32(len(rep.Problems)))
		for _, p := range rep.Problems {
			w.String(p)
		}
		return w.Done(), nil
	default:
		return nil, fmt.Errorf("wire: unknown opcode %d", op)
	}
}

func (st *connState) addFD(f *core.File) []byte {
	fd := st.nextFD
	st.nextFD++
	st.files[fd] = f
	return rowenc.NewWriter(4).Uint32(uint32(fd)).Done()
}
