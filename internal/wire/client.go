package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/rowenc"
	"repro/internal/value"
)

func floatBits(f float64) uint64  { return math.Float64bits(f) }
func floatFrom(u uint64) float64  { return math.Float64frombits(u) }
func oidFrom(u uint32) device.OID { return device.OID(u) }

// ErrConnLost is returned (wrapped) when the connection to the server
// died and the operation could not be safely retried on a fresh one.
// If a transaction was open it has been aborted server-side; the
// application should re-run it — the paper's
// one-transaction-per-application model makes the transaction the unit
// of retry.
var ErrConnLost = errors.New("wire: connection lost")

// FD is a remote file descriptor.
type FD int32

// Whence values for PLseek, mirroring io.Seek*.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Client reconnection defaults; zero fields in DialConfig take these.
const (
	DefaultDialTimeout = 5 * time.Second
	DefaultBackoffBase = 50 * time.Millisecond
	DefaultBackoffMax  = 2 * time.Second
)

// DialConfig configures DialWithConfig.
type DialConfig struct {
	Addr  string
	Owner string
	// DialTimeout bounds one connection attempt.
	DialTimeout time.Duration
	// CallTimeout bounds one request/response round trip; 0 means no
	// deadline. A timed-out call poisons the connection (a partial frame
	// may be in flight), so the connection is dropped and the usual
	// reconnect rules apply.
	CallTimeout time.Duration
	// MaxRetries is how many reconnect attempts a single call may make
	// after losing the connection. 0 disables reconnection: the first
	// transport error marks the client broken and every subsequent call
	// fails fast with ErrConnLost.
	MaxRetries int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// reconnect attempts; each delay is jittered to half..full of the
	// nominal value.
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

func (c DialConfig) withDefaults() DialConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = DefaultBackoffMax
	}
	return c
}

// Client is the special library the paper's programs link to reach
// Inversion remotely. All calls are synchronous request/response over
// one TCP connection; the client is safe for concurrent use but calls
// serialise, matching the one-transaction-per-application model.
//
// A client dialed with a reconnecting DialConfig re-establishes the
// connection with exponential backoff, but only re-sends operations
// that are safe to repeat: descriptor operations never (remote fds die
// with the connection), and inside a transaction only idempotent path
// reads — an in-transaction mutation after a connection loss returns
// ErrConnLost so the application re-runs the whole transaction. The
// lost-transaction state is sticky: every later mutation inside the
// dead bracket fails with ErrConnLost as well (only idempotent reads
// proceed), until Begin, Commit, or Abort resets it.
type Client struct {
	cfg DialConfig

	// mu serialises calls and guards the transaction tracking below.
	mu     sync.Mutex
	inTx   bool // an explicit transaction is open on the current conn
	txLost bool // the conn died mid-tx; fail mutations until the next bracketing op
	rng    *rand.Rand

	// Current trace context: minted at Begin and shared by every op in
	// the transaction's bracket, so the server stitches a multi-op
	// transaction into one trace. Ops outside a transaction mint a
	// fresh single-op trace per call.
	traceHi, traceLo uint64
	rootSpan         uint64

	// req is the request frame, assembled once per call (header room,
	// trace context, op payload) and reused by the next call; hdr
	// receives the reply's header. Both are guarded by mu.
	req []byte
	hdr [frameHeader]byte

	// connMu guards conn and closed separately from mu so Close never
	// waits behind a call that is blocked on a stalled server or
	// sleeping out a reconnect backoff: closing the live conn unblocks
	// its I/O, and closedCh cuts the backoff sleep short.
	connMu   sync.Mutex
	conn     net.Conn
	closed   bool
	closedCh chan struct{}
}

// Dial connects to an Inversion server and performs the owner
// handshake. The resulting client does not reconnect: after a
// transport error it fails fast with ErrConnLost (use DialWithConfig
// for a reconnecting client).
func Dial(addr, owner string) (*Client, error) {
	return DialWithConfig(DialConfig{Addr: addr, Owner: owner})
}

// DialWithConfig connects with explicit timeout and reconnection
// settings.
func DialWithConfig(cfg DialConfig) (*Client, error) {
	c := &Client{
		cfg:      cfg.withDefaults(),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
		closedCh: make(chan struct{}),
	}
	conn, err := c.connect()
	if err != nil {
		return nil, err
	}
	c.conn = conn
	return c, nil
}

// connect dials and performs the owner handshake on a fresh connection.
func (c *Client) connect() (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(c.cfg.DialTimeout))
	if err := writeMsg(conn, 0, []byte(c.cfg.Owner)); err != nil {
		conn.Close()
		return nil, err
	}
	if _, _, err := readMsg(conn); err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

// Close tears the connection down; the client cannot be used again.
// It returns without waiting for in-flight calls: closing the live
// connection unblocks a call stalled in I/O, and a call mid-backoff is
// woken and fails with ErrConnLost.
func (c *Client) Close() error {
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		return nil
	}
	c.closed = true
	close(c.closedCh)
	conn := c.conn
	c.conn = nil
	c.connMu.Unlock()
	if conn == nil {
		return nil
	}
	return conn.Close()
}

// liveConn snapshots the current connection and closed flag.
func (c *Client) liveConn() (net.Conn, bool) {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.conn, c.closed
}

// installConn publishes a freshly dialed connection unless the client
// was closed meanwhile (then the caller must close it).
func (c *Client) installConn(conn net.Conn) bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closed {
		return false
	}
	c.conn = conn
	return true
}

// dropConn closes a poisoned connection and unpublishes it if it is
// still the live one.
func (c *Client) dropConn(conn net.Conn) {
	conn.Close()
	c.connMu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	c.connMu.Unlock()
}

// retryable reports whether op may be transparently re-sent on a fresh
// connection, evaluated against the transaction state from before the
// loss. Descriptor ops never are: remote fds die with the connection.
// Inside a transaction only idempotent path reads are (the transaction
// itself is gone; the retried read sees committed state and the loss is
// reported at commit). Outside a transaction everything else is fair
// game — autocommit retries are at-least-once, which the paper's
// failure model accepts.
func (c *Client) retryable(op byte) bool {
	switch op {
	case OpClose, OpRead, OpWrite, OpLseek, OpTruncate:
		return false
	}
	if !c.inTx {
		return true
	}
	switch op {
	case OpStat, OpReadDir, OpCall, OpStatsV2, OpScrub, OpWaitProfile:
		return true
	}
	return false
}

// roundTrip performs one request/response exchange on conn under the
// call deadline: it sends the assembled request frame and reads the
// reply. With into set, the body of a successful reply is read from the
// socket straight into it (anything beyond its length is dropped) and n
// says how much that was; otherwise the body is returned in a buffer of
// its own.
func (c *Client) roundTrip(conn net.Conn, op byte, frame, into []byte) (resp []byte, n int, err error) {
	if c.cfg.CallTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
		defer conn.SetDeadline(time.Time{})
	}
	if err := sendFrame(conn, op, frame); err != nil {
		return nil, 0, err
	}
	if _, err := io.ReadFull(conn, c.hdr[:]); err != nil {
		return nil, 0, err
	}
	size := binary.LittleEndian.Uint32(c.hdr[:4])
	if size == 0 || size > maxMessage {
		return nil, 0, fmt.Errorf("wire: bad message length %d", size)
	}
	body, status := int(size)-1, c.hdr[4]
	dst := into
	if into == nil || status == statusErr {
		dst = make([]byte, body)
	}
	n = min(body, len(dst))
	if _, err := io.ReadFull(conn, dst[:n]); err != nil {
		return nil, 0, err
	}
	if _, err := io.CopyN(io.Discard, conn, int64(body-n)); err != nil {
		return nil, 0, err
	}
	if status == statusErr {
		return nil, 0, decodeErrFrame(dst)
	}
	if into != nil {
		return nil, n, nil
	}
	return dst, 0, nil
}

// sleepBackoff waits out the attempt'th reconnect delay: exponential
// from BackoffBase capped at BackoffMax, jittered across the upper half
// so a fleet of clients does not stampede a restarted server. The sleep
// is cut short if the client is closed, so Close interrupts a retrying
// call instead of waiting out its backoff schedule.
func (c *Client) sleepBackoff(attempt int) error {
	d := c.cfg.BackoffBase << uint(attempt)
	if d <= 0 || d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	half := d / 2
	t := time.NewTimer(half + time.Duration(c.rng.Int63n(int64(half)+1)))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.closedCh:
		return fmt.Errorf("wire: client closed: %w", ErrConnLost)
	}
}

// noteOutcome updates transaction tracking after the server answered
// (success or remote error — either way the connection is healthy). A
// failed commit or abort still ends the server-side transaction.
func (c *Client) noteOutcome(op byte, err error) {
	switch op {
	case OpBegin:
		if err == nil {
			c.inTx = true
		}
	case OpCommit, OpAbort:
		c.inTx = false
	}
}

// call performs one request/response round trip and returns the reply
// body.
func (c *Client) call(op byte, payload []byte) ([]byte, error) {
	resp, _, err := c.do(op, nil, payload)
	return resp, err
}

// do performs one request/response round trip, reconnecting and
// retrying when the operation is safe to repeat. The op's payload is
// the concatenation of parts, copied once into the request frame. With
// into set, a successful reply's body lands in it and n is its length
// (see roundTrip).
func (c *Client) do(op byte, into []byte, parts ...[]byte) (resp []byte, n int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	// A transaction lost to a dead connection is reported at its
	// bracketing ops — commit cannot have happened; abort already did —
	// and the lost state is sticky until then: every other op issued
	// inside the dead transaction's bracket fails with ErrConnLost too,
	// except the idempotent path reads, which proceed against committed
	// state. Without that, a mutation following a silently retried read
	// would run in autocommit on the fresh connection and survive the
	// transaction re-run the application is about to perform.
	switch op {
	case OpBegin:
		c.txLost = false
	case OpCommit:
		if c.txLost {
			c.txLost = false
			return nil, 0, fmt.Errorf("wire: transaction lost before commit: %w", ErrConnLost)
		}
	case OpAbort:
		if c.txLost {
			c.txLost = false
			return nil, 0, nil
		}
	case OpStat, OpReadDir, OpCall, OpStatsV2, OpScrub, OpWaitProfile:
		// Idempotent reads; safe whether or not the transaction is lost.
	default:
		if c.txLost {
			return nil, 0, fmt.Errorf("wire: transaction lost: %w", ErrConnLost)
		}
	}

	// Trace context: Begin mints the trace the whole transaction
	// bracket will share; ops outside a transaction are each their own
	// single-op trace. The context is fixed before the retry loop, so a
	// retried op keeps its trace id across reconnects — only the
	// attempt byte changes.
	tc := traceCtx{Hi: c.traceHi, Lo: c.traceLo, Parent: c.rootSpan, Sampled: true}
	if op == OpBegin || !c.inTx {
		tc.Hi, tc.Lo = c.rng.Uint64()|1, c.rng.Uint64()
		tc.Parent = c.rng.Uint64() | 1
		if op == OpBegin {
			c.traceHi, c.traceLo, c.rootSpan = tc.Hi, tc.Lo, tc.Parent
		}
	}

	conn, closed := c.liveConn()
	if closed {
		return nil, 0, fmt.Errorf("wire: client closed: %w", ErrConnLost)
	}
	if conn == nil && (!c.retryable(op) || c.cfg.MaxRetries == 0) {
		return nil, 0, fmt.Errorf("wire: not connected: %w", ErrConnLost)
	}

	// The frame is assembled once; a retry only restamps the attempt
	// byte, the last of the trace context.
	frame := appendTraceCtx(beginFrame(c.req), tc)
	for _, part := range parts {
		frame = append(frame, part...)
	}
	if cap(frame) <= maxKeptBuffer {
		c.req = frame
	} else {
		c.req = nil
	}

	var lastErr error
	for attempt := 0; ; attempt++ {
		if conn == nil {
			fresh, err := c.connect()
			if err != nil {
				lastErr = err
				if attempt >= c.cfg.MaxRetries {
					break
				}
				if err := c.sleepBackoff(attempt); err != nil {
					return nil, 0, err
				}
				continue
			}
			if !c.installConn(fresh) {
				fresh.Close()
				return nil, 0, fmt.Errorf("wire: client closed: %w", ErrConnLost)
			}
			conn = fresh
		}
		frame[frameHeader+traceCtxLen-1] = byte(min(attempt, 255))
		resp, n, err := c.roundTrip(conn, op|opTraceFlag, frame, into)
		var remote *RemoteError
		if err == nil || errors.As(err, &remote) {
			// The server answered; the connection is healthy.
			c.noteOutcome(op, err)
			return resp, n, err
		}
		// Transport failure: the connection is poisoned (a partial frame
		// may be in flight), so drop it. Decide retryability against the
		// pre-loss transaction state, then record that the transaction —
		// if any — died with the connection.
		lastErr = err
		retry := c.retryable(op)
		c.dropConn(conn)
		conn = nil
		if c.inTx {
			c.inTx = false
			c.txLost = true
		}
		if !retry || attempt >= c.cfg.MaxRetries {
			break
		}
		if err := c.sleepBackoff(attempt); err != nil {
			return nil, 0, err
		}
	}
	return nil, 0, fmt.Errorf("wire: %v: %w", lastErr, ErrConnLost)
}

// PBegin starts a transaction.
func (c *Client) PBegin() error { _, err := c.call(OpBegin, nil); return err }

// PCommit commits the transaction.
func (c *Client) PCommit() error { _, err := c.call(OpCommit, nil); return err }

// PAbort aborts the transaction.
func (c *Client) PAbort() error { _, err := c.call(OpAbort, nil); return err }

// PCreat creates a file; mode selects type, device class and flags
// ("the mode flag to p_open and p_creat encodes the device on which the
// file should reside").
func (c *Client) PCreat(path string, opts core.CreateOpts) (FD, error) {
	resp, err := c.call(OpCreat, rowenc.NewWriter(64).
		String(path).String(opts.Type).String(opts.Class).Uint32(opts.Flags).Done())
	if err != nil {
		return -1, err
	}
	return FD(rowenc.NewReader(resp).Uint32()), nil
}

// POpen opens a file; timestamp != 0 opens the historical version as
// of that time (read-only).
func (c *Client) POpen(path string, write bool, timestamp int64) (FD, error) {
	w := uint32(0)
	if write {
		w = 1
	}
	resp, err := c.call(OpOpen, rowenc.NewWriter(32).
		String(path).Uint32(w).Int64(timestamp).Done())
	if err != nil {
		return -1, err
	}
	return FD(rowenc.NewReader(resp).Uint32()), nil
}

// PClose closes a descriptor.
func (c *Client) PClose(fd FD) error {
	_, err := c.call(OpClose, rowenc.NewWriter(4).Uint32(uint32(fd)).Done())
	return err
}

// fdAndLen encodes a descriptor and a byte count: all of OpRead's
// payload, and what precedes the data in OpWrite's.
func fdAndLen(fd FD, n int) (b [8]byte) {
	binary.LittleEndian.PutUint32(b[0:], uint32(fd))
	binary.LittleEndian.PutUint32(b[4:], uint32(n))
	return b
}

// PRead reads up to len(buf) bytes at the descriptor's position.
func (c *Client) PRead(fd FD, buf []byte) (int, error) {
	req := fdAndLen(fd, len(buf))
	if buf == nil {
		buf = []byte{} // "into", not "no into"
	}
	_, n, err := c.do(OpRead, buf, req[:])
	if err != nil {
		return 0, err
	}
	if n == 0 && len(buf) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// PWrite writes buf at the descriptor's position.
func (c *Client) PWrite(fd FD, buf []byte) (int, error) {
	req := fdAndLen(fd, len(buf))
	resp, _, err := c.do(OpWrite, nil, req[:], buf)
	if err != nil {
		return 0, err
	}
	return int(rowenc.NewReader(resp).Uint32()), nil
}

// PLseek repositions a descriptor. The paper splits the 64-bit offset
// across two ints so clients can address 17.6 TB files; Go just uses
// int64.
func (c *Client) PLseek(fd FD, offset int64, whence int) (int64, error) {
	resp, err := c.call(OpLseek, rowenc.NewWriter(16).
		Uint32(uint32(fd)).Int64(offset).Uint32(uint32(whence)).Done())
	if err != nil {
		return 0, err
	}
	return rowenc.NewReader(resp).Int64(), nil
}

// PTruncate resizes an open file.
func (c *Client) PTruncate(fd FD, size int64) error {
	_, err := c.call(OpTruncate, rowenc.NewWriter(12).
		Uint32(uint32(fd)).Int64(size).Done())
	return err
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	_, err := c.call(OpMkdir, rowenc.NewWriter(len(path)+4).String(path).Done())
	return err
}

// Unlink removes a file or empty directory.
func (c *Client) Unlink(path string) error {
	_, err := c.call(OpUnlink, rowenc.NewWriter(len(path)+4).String(path).Done())
	return err
}

// Rename moves a file.
func (c *Client) Rename(oldPath, newPath string) error {
	_, err := c.call(OpRename, rowenc.NewWriter(len(oldPath)+len(newPath)+8).
		String(oldPath).String(newPath).Done())
	return err
}

// Stat fetches attributes; timestamp != 0 asks about the past.
func (c *Client) Stat(path string, timestamp int64) (core.FileAttr, error) {
	resp, err := c.call(OpStat, rowenc.NewWriter(32).String(path).Int64(timestamp).Done())
	if err != nil {
		return core.FileAttr{}, err
	}
	return decodeAttrWire(resp)
}

// DirEntry is a remote directory entry.
type DirEntry struct {
	Name string
	Attr core.FileAttr
}

// ReadDir lists a directory; timestamp != 0 lists it as of the past.
func (c *Client) ReadDir(path string, timestamp int64) ([]DirEntry, error) {
	resp, err := c.call(OpReadDir, rowenc.NewWriter(32).String(path).Int64(timestamp).Done())
	if err != nil {
		return nil, err
	}
	return decodeReadDir(resp)
}

// decodeReadDir decodes an OpReadDir reply.
func decodeReadDir(b []byte) ([]DirEntry, error) {
	r := rowenc.NewReader(b)
	// Each entry is a name and an attribute record, both length-prefixed.
	n := r.Count(4 + 4 + attrWireMin)
	out := make([]DirEntry, 0, n)
	for i := 0; i < n; i++ {
		name := r.String()
		attrB := r.Bytes()
		if err := r.Err(); err != nil {
			return nil, err
		}
		attr, err := decodeAttrWire(attrB)
		if err != nil {
			return nil, err
		}
		out = append(out, DirEntry{name, attr})
	}
	return out, r.Err()
}

// QueryResult is a remote query result.
type QueryResult struct {
	Message string
	Columns []string
	Rows    [][]value.V
}

// Query runs a POSTQUEL statement on the server.
func (c *Client) Query(q string) (*QueryResult, error) {
	resp, err := c.call(OpQuery, rowenc.NewWriter(len(q)+8).String(q).Done())
	if err != nil {
		return nil, err
	}
	return decodeQuery(resp)
}

// decodeQuery decodes an OpQuery reply.
func decodeQuery(b []byte) (*QueryResult, error) {
	r := rowenc.NewReader(b)
	res := &QueryResult{Message: r.String()}
	ncols := r.Count(4)
	for i := 0; i < ncols; i++ {
		res.Columns = append(res.Columns, r.String())
	}
	// A row is ncols length-prefixed values. A retrieve names at least
	// one column, so a row without any is bounded as one byte.
	nrows := r.Count(max(1, ncols*(4+valueWireMin)))
	for i := 0; i < nrows; i++ {
		row := make([]value.V, 0, ncols)
		for j := 0; j < ncols; j++ {
			vb := r.Bytes()
			if err := r.Err(); err != nil {
				return nil, err
			}
			v, err := decodeValue(rowenc.NewReader(vb))
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, r.Err()
}

// Call invokes a registered function on a file.
func (c *Client) Call(fn, path string) (value.V, error) {
	resp, err := c.call(OpCall, rowenc.NewWriter(len(fn)+len(path)+8).
		String(fn).String(path).Done())
	if err != nil {
		return value.Null(), err
	}
	return decodeValue(rowenc.NewReader(resp))
}

// DefineType declares a file type on the server.
func (c *Client) DefineType(name, doc string) error {
	_, err := c.call(OpDefineType, rowenc.NewWriter(len(name)+len(doc)+8).
		String(name).String(doc).Done())
	return err
}

// SetFileType assigns a file type (it must be defined on the server).
func (c *Client) SetFileType(path, typ string) error {
	_, err := c.call(OpSetType, rowenc.NewWriter(len(path)+len(typ)+8).
		String(path).String(typ).Done())
	return err
}

// Migrate moves a file to another device class.
func (c *Client) Migrate(path, class string) error {
	_, err := c.call(OpMigrate, rowenc.NewWriter(len(path)+len(class)+8).
		String(path).String(class).Done())
	return err
}

// StatsV2 fetches the server's full metrics-registry snapshot:
// counters, gauges, and per-layer latency histograms.
func (c *Client) StatsV2() (obs.Snapshot, error) {
	resp, err := c.call(OpStatsV2, nil)
	if err != nil {
		return obs.Snapshot{}, err
	}
	return obs.DecodeSnapshot(resp)
}

// WaitProfile fetches the server's accumulated wait-event profile
// (empty when the server runs without a wait sampler).
func (c *Client) WaitProfile() (obs.WaitProfile, error) {
	resp, err := c.call(OpWaitProfile, nil)
	if err != nil {
		return obs.WaitProfile{}, err
	}
	return obs.DecodeWaitProfile(resp)
}

// Vacuum runs the vacuum cleaner on the server.
func (c *Client) Vacuum() (relations, scanned, archived, removed int, err error) {
	resp, err := c.call(OpVacuum, nil)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	r := rowenc.NewReader(resp)
	return int(r.Uint32()), int(r.Uint32()), int(r.Uint32()), int(r.Uint32()), r.Err()
}

// ScrubResult is the wire form of the server's full integrity pass
// (core.ScrubReport): check counts plus human-readable descriptions of
// every media fault and structural problem found.
type ScrubResult struct {
	Relations    int
	PagesChecked int
	Indexes      int
	Files        int
	Chunks       int
	Corrupt      []string
	Problems     []string
}

// OK reports whether the database verified clean.
func (s ScrubResult) OK() bool { return len(s.Corrupt) == 0 && len(s.Problems) == 0 }

// Summary renders the result in one line.
func (s ScrubResult) Summary() string {
	return fmt.Sprintf("scrub: %d pages, %d indexes, %d files, %d chunks checked; %d media faults, %d problems",
		s.PagesChecked, s.Indexes, s.Files, s.Chunks, len(s.Corrupt), len(s.Problems))
}

// Scrub runs the server's full integrity pass: the media scrub plus
// structural B-tree, namespace, chunk, and transaction-log checks.
func (c *Client) Scrub() (ScrubResult, error) {
	resp, err := c.call(OpScrub, nil)
	if err != nil {
		return ScrubResult{}, err
	}
	return decodeScrub(resp)
}

// decodeScrub decodes an OpScrub reply.
func decodeScrub(b []byte) (ScrubResult, error) {
	r := rowenc.NewReader(b)
	res := ScrubResult{
		Relations:    int(r.Uint32()),
		PagesChecked: int(r.Uint32()),
		Indexes:      int(r.Uint32()),
		Files:        int(r.Uint32()),
		Chunks:       int(r.Uint32()),
	}
	for n := r.Count(4); n > 0; n-- {
		res.Corrupt = append(res.Corrupt, r.String())
	}
	for n := r.Count(4); n > 0; n-- {
		res.Problems = append(res.Problems, r.String())
	}
	return res, r.Err()
}
