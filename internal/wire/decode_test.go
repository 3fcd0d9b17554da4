package wire

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/rowenc"
	"repro/internal/value"
)

// allocBytes reports how many bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeRepliesRejectImpossibleCounts: a reply whose element count
// its bytes cannot hold is rejected before the decoder allocates or
// loops for the elements it claims. Each payload is a few bytes long.
func TestDecodeRepliesRejectImpossibleCounts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		reply  func(n uint32) []byte
		decode func([]byte) error
	}{
		{"query columns",
			func(n uint32) []byte { return rowenc.NewWriter(9).String("").Uint32(n).Uint32(0).Done()[:9] },
			func(b []byte) error { _, err := decodeQuery(b); return err }},
		{"query rows",
			func(n uint32) []byte { return rowenc.NewWriter(12).String("").Uint32(0).Uint32(n).Done() },
			func(b []byte) error { _, err := decodeQuery(b); return err }},
		{"readdir entries",
			func(n uint32) []byte { return rowenc.NewWriter(8).Uint32(n).String("").Done() },
			func(b []byte) error { _, err := decodeReadDir(b); return err }},
		{"call list",
			func(n uint32) []byte {
				return append(encodeValue(value.List(nil))[:valueWireMin-4], rowenc.NewWriter(4).Uint32(n).Done()...)
			},
			func(b []byte) error { _, err := decodeValue(rowenc.NewReader(b)); return err }},
		{"scrub corrupt",
			func(n uint32) []byte {
				return rowenc.NewWriter(28).Uint32(1).Uint32(1).Uint32(1).Uint32(1).Uint32(1).Uint32(n).Done()
			},
			func(b []byte) error { _, err := decodeScrub(b); return err }},
		{"scrub problems",
			func(n uint32) []byte {
				return rowenc.NewWriter(32).Uint32(1).Uint32(1).Uint32(1).Uint32(1).Uint32(1).Uint32(0).Uint32(n).Done()
			},
			func(b []byte) error { _, err := decodeScrub(b); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The smaller count first: a decoder that trusts counts
			// fails on it with a few MB allocated, before the 4 G one
			// could exhaust memory.
			for _, n := range []uint32{1 << 16, math.MaxUint32} {
				b := tc.reply(n)
				var err error
				if got := allocBytes(func() { err = tc.decode(b) }); got > 64<<10 {
					t.Fatalf("count %d in %d bytes: decoding allocated %d bytes", n, len(b), got)
				}
				if !errors.Is(err, rowenc.ErrCorrupt) {
					t.Fatalf("count %d in %d bytes: err = %v, want ErrCorrupt", n, len(b), err)
				}
			}
		})
	}
}

// TestOversizedReplyKeepsConnection: a reply past the message size
// limit comes back as ErrReplyTooLarge, and the connection serves the
// next call.
func TestOversizedReplyKeepsConnection(t *testing.T) {
	_, addr, db := startServer(t)
	huge := func(*core.FuncCtx) (value.V, error) { return value.Str(strings.Repeat("x", 17<<20)), nil }
	if err := db.NewSession("setup").DefineFunction(catalog.FuncInfo{Name: "huge"}, huge); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr, "mao")
	if _, err := c.Call("huge", "/"); !errors.Is(err, ErrReplyTooLarge) {
		t.Fatalf("oversized call: err = %v, want ErrReplyTooLarge", err)
	}
	if _, err := c.Stat("/", 0); err != nil {
		t.Fatalf("call after the oversized reply: %v", err)
	}
}

// realReplies returns the reply bodies a server sends for a retrieve, a
// directory listing, a function call and a scrub, over a database
// holding two files.
func realReplies(tb testing.TB) [][]byte {
	db := newTestDB(tb)
	tb.Cleanup(func() { db.Close() })
	srv := NewServer(db)
	st := &connState{sess: db.NewSession("mao"), files: make(map[int32]*core.File)}
	for _, p := range []string{"/a", "/b"} {
		f, err := st.sess.Create(p, core.CreateOpts{})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := f.Write([]byte(strings.Repeat(p, 40))); err != nil {
			tb.Fatal(err)
		}
		if err := f.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	var replies [][]byte
	for _, req := range []struct {
		op      byte
		payload []byte
	}{
		{OpQuery, rowenc.NewWriter(64).String(`retrieve (filename, size(file), isdir(file)) sort by filename`).Done()},
		{OpReadDir, rowenc.NewWriter(16).String("/").Int64(0).Done()},
		{OpCall, rowenc.NewWriter(16).String("size").String("/a").Done()},
		{OpScrub, nil},
	} {
		resp, err := srv.handle(st, req.op, req.payload)
		if err != nil {
			tb.Fatalf("%s: %v", OpName(req.op), err)
		}
		replies = append(replies, resp)
	}
	return replies
}

// FuzzDecodeReplies: no byte string makes a reply decoder panic, or
// return more elements than its bytes could encode.
func FuzzDecodeReplies(f *testing.F) {
	for _, b := range realReplies(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if res, err := decodeQuery(b); err == nil && len(res.Columns)*4+len(res.Rows) > len(b) {
			t.Fatalf("query: %d columns, %d rows from %d bytes", len(res.Columns), len(res.Rows), len(b))
		}
		if ents, err := decodeReadDir(b); err == nil && len(ents)*(8+attrWireMin) > len(b) {
			t.Fatalf("readdir: %d entries from %d bytes", len(ents), len(b))
		}
		if v, err := decodeValue(rowenc.NewReader(b)); err == nil && len(v.L)*4 > len(b) {
			t.Fatalf("call: %d list elements from %d bytes", len(v.L), len(b))
		}
		if res, err := decodeScrub(b); err == nil && (len(res.Corrupt)+len(res.Problems))*4 > len(b) {
			t.Fatalf("scrub: %d strings from %d bytes", len(res.Corrupt)+len(res.Problems), len(b))
		}
	})
}
