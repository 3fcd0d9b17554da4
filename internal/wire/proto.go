// Package wire implements the client/server access path to Inversion:
// "The current implementation requires programmers to link a special
// library in order to access Inversion file data" — this is that
// library, speaking a length-prefixed binary protocol over TCP (the
// paper's transport: "client/server communication was via TCP/IP over a
// 10 Mbit/sec Ethernet"). The client exposes the paper's interface
// routines: p_creat, p_open, p_close, p_read, p_write, p_lseek, and
// p_begin/p_commit/p_abort, plus the query monitor entry point.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/txn"
)

// Opcodes.
const (
	OpBegin byte = iota + 1
	OpCommit
	OpAbort
	OpCreat
	OpOpen
	OpClose
	OpRead
	OpWrite
	OpLseek
	OpTruncate
	OpMkdir
	OpUnlink
	OpRename
	OpReadDir
	OpStat
	OpQuery
	OpCall
	OpDefineType
	OpMigrate
	OpVacuum
	_ // 21: the retired stats op (statsv2 is a superset); reserved so later ops keep their numbers
	OpSetType
	OpStatsV2
	OpScrub
	OpWaitProfile
)

// opNames labels opcodes for metrics and traces. Indexed by opcode.
var opNames = [...]string{
	OpBegin: "begin", OpCommit: "commit", OpAbort: "abort",
	OpCreat: "creat", OpOpen: "open", OpClose: "close",
	OpRead: "read", OpWrite: "write", OpLseek: "lseek",
	OpTruncate: "truncate", OpMkdir: "mkdir", OpUnlink: "unlink",
	OpRename: "rename", OpReadDir: "readdir", OpStat: "stat",
	OpQuery: "query", OpCall: "call", OpDefineType: "deftype",
	OpMigrate: "migrate", OpVacuum: "vacuum",
	OpSetType: "settype", OpStatsV2: "statsv2", OpScrub: "scrub",
	OpWaitProfile: "waitprofile",
}

// OpName reports the metric label for an opcode ("op<N>" if unknown).
func OpName(op byte) string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op%d", op)
}

// opTraceFlag is the high bit of a request's op byte. When set, the
// payload begins with a fixed-size trace context (traceCtxLen bytes)
// ahead of the op's own payload. Opcodes stay below 0x80, so the flag
// never collides with a real op, and servers that predate it reject
// the unknown op loudly instead of misparsing the payload.
const opTraceFlag byte = 0x80

// traceCtx is the trace context a client attaches to each request:
// the 128-bit trace id shared by every op of a logical transaction,
// the client-side parent span that minted it, a sampled flag, and an
// attempt counter so a retried op is visibly the same logical op on
// its Nth try rather than a fresh one.
type traceCtx struct {
	Hi, Lo  uint64
	Parent  uint64
	Sampled bool
	Attempt uint8
}

// traceCtxLen is the encoded size: 3×u64 + flags byte + attempt byte.
const traceCtxLen = 26

// appendTraceCtx prepends nothing — it appends the encoded context to
// dst (callers build the full payload as ctx || op payload).
func appendTraceCtx(dst []byte, tc traceCtx) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, tc.Hi)
	dst = binary.LittleEndian.AppendUint64(dst, tc.Lo)
	dst = binary.LittleEndian.AppendUint64(dst, tc.Parent)
	var flags byte
	if tc.Sampled {
		flags = 1
	}
	return append(dst, flags, tc.Attempt)
}

// splitTraceCtx strips the trace flag and context (if present) off an
// incoming request, returning the bare op and the op's own payload.
func splitTraceCtx(op byte, payload []byte) (byte, []byte, traceCtx, bool, error) {
	if op&opTraceFlag == 0 {
		return op, payload, traceCtx{}, false, nil
	}
	if len(payload) < traceCtxLen {
		return op, payload, traceCtx{}, false,
			fmt.Errorf("wire: truncated trace context (%d bytes)", len(payload))
	}
	tc := traceCtx{
		Hi:      binary.LittleEndian.Uint64(payload[0:8]),
		Lo:      binary.LittleEndian.Uint64(payload[8:16]),
		Parent:  binary.LittleEndian.Uint64(payload[16:24]),
		Sampled: payload[24]&1 != 0,
		Attempt: payload[25],
	}
	return op &^ opTraceFlag, payload[traceCtxLen:], tc, true, nil
}

// Response status codes.
const (
	statusOK  byte = 0
	statusErr byte = 1
)

// Error codes carried in the first byte of a statusErr payload, so
// clients can match sentinel errors (deadlock, reap) without parsing
// message text.
const (
	errCodeGeneric  byte = 0
	errCodeDeadlock byte = 1
	errCodeReaped   byte = 2
	errCodeTooLarge byte = 3
)

// ErrReplyTooLarge is returned when the reply to a request would exceed
// the protocol's message size limit. The server sends it in place of the
// reply and keeps the connection; a smaller request (a narrower
// retrieve, a smaller read) can still succeed on it.
var ErrReplyTooLarge = errors.New("wire: reply exceeds the message size limit")

// errFrame encodes an error reply payload: code byte + message.
func errFrame(err error) []byte {
	code := errCodeGeneric
	switch {
	case errors.Is(err, txn.ErrDeadlock):
		code = errCodeDeadlock
	case errors.Is(err, core.ErrReaped):
		code = errCodeReaped
	case errors.Is(err, ErrReplyTooLarge):
		code = errCodeTooLarge
	}
	msg := err.Error()
	buf := make([]byte, 1+len(msg))
	buf[0] = code
	copy(buf[1:], msg)
	return buf
}

// decodeErrFrame is the client-side inverse of errFrame.
func decodeErrFrame(payload []byte) *RemoteError {
	if len(payload) == 0 {
		return &RemoteError{Msg: "unknown error"}
	}
	return &RemoteError{Code: payload[0], Msg: string(payload[1:])}
}

// maxMessage bounds a single protocol message.
const maxMessage = 1 << 24

// A frame is u32 length | kind | payload, where length counts the kind
// byte and the payload. frameHeader is what precedes the payload.
const frameHeader = 5

// maxKeptBuffer is the largest buffer a connection keeps from one
// request to the next. A bigger message still gets a buffer its size;
// it just is not held on to, so that one 8 MB read does not cost 8 MB
// for as long as the connection stays open.
const maxKeptBuffer = 1 << 20

// beginFrame resets buf to an empty frame: room for the header, to
// which the caller appends the payload.
func beginFrame(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0, 0) }

// sendFrame fills in the header of a frame begun with beginFrame and
// sends it in a single Write, so that a message is one segment on a
// connection that does not delay small writes.
func sendFrame(w io.Writer, kind byte, frame []byte) error {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	frame[4] = kind
	_, err := w.Write(frame)
	return err
}

// writeMsg sends one framed message: u32 length | kind | payload.
func writeMsg(w io.Writer, kind byte, payload []byte) error {
	frame := beginFrame(make([]byte, 0, frameHeader+len(payload)))
	return sendFrame(w, kind, append(frame, payload...))
}

// readFrame receives one framed message into *buf, which it grows when
// the message does not fit. The payload returned is part of *buf: it is
// good until the next readFrame on the same buffer.
func readFrame(r io.Reader, buf *[]byte) (kind byte, payload []byte, err error) {
	b := *buf
	if cap(b) < 4 {
		b = make([]byte, 64) // room for the length, and for most requests
	}
	if _, err := io.ReadFull(r, b[:4]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(b[:4])
	if n == 0 || n > maxMessage {
		return 0, nil, fmt.Errorf("wire: bad message length %d", n)
	}
	if uint32(cap(b)) < n {
		b = make([]byte, n)
	}
	b = b[:n]
	*buf = b
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, nil, err
	}
	return b[0], b[1:], nil
}

// readMsg receives one framed message into a buffer of its own.
func readMsg(r io.Reader) (kind byte, payload []byte, err error) {
	var buf []byte
	return readFrame(r, &buf)
}

// RemoteError is an error reported by the server. Code classifies the
// failure; errors.Is(err, txn.ErrDeadlock), errors.Is(err,
// core.ErrReaped) and errors.Is(err, ErrReplyTooLarge) match the
// corresponding codes, so remote sentinel errors behave like local ones.
type RemoteError struct {
	Code byte
	Msg  string
}

func (e *RemoteError) Error() string { return "inversion server: " + e.Msg }

// Is maps wire error codes back onto the sentinel errors they encode.
func (e *RemoteError) Is(target error) bool {
	switch e.Code {
	case errCodeDeadlock:
		return target == txn.ErrDeadlock
	case errCodeReaped:
		return target == core.ErrReaped
	case errCodeTooLarge:
		return target == ErrReplyTooLarge
	}
	return false
}
