package wire

import (
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// rawConn dials the server without the client library, for sending
// malformed traffic.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func handshake(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := writeMsg(conn, 0, []byte("raw")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readMsg(conn); err != nil {
		t.Fatal(err)
	}
}

// TestServerSurvivesMalformedFrames throws hostile byte streams at the
// server; it must drop the connection or answer with an error, never
// crash, and must keep serving well-formed clients afterwards.
func TestServerSurvivesMalformedFrames(t *testing.T) {
	_, addr, _ := startServer(t)

	attacks := [][]byte{
		// Zero-length frame.
		{0, 0, 0, 0},
		// Giant declared length.
		{0xff, 0xff, 0xff, 0xff},
		// Length larger than payload actually sent (connection then
		// closed mid-frame by the deferred cleanup).
		{0xe8, 0x03, 0, 0, OpQuery},
		// Unknown opcode.
		{2, 0, 0, 0, 0xEE, 0x01},
		// Truncated rowenc payload for an op that decodes fields.
		{3, 0, 0, 0, OpOpen, 0x50, 0x50},
	}
	for i, attack := range attacks {
		conn := rawConn(t, addr)
		handshake(t, conn)
		if _, err := conn.Write(attack); err != nil {
			t.Fatalf("attack %d write: %v", i, err)
		}
		// Read whatever comes back (error reply or EOF); just don't hang.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		var hdr [4]byte
		_, _ = io.ReadFull(conn, hdr[:])
		conn.Close()
	}

	// The server is still healthy for real clients.
	c := dial(t, addr, "survivor")
	fd, err := c.PCreat("/after-attacks", core.CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PWrite(fd, []byte("still serving")); err != nil {
		t.Fatal(err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}
	attr, err := c.Stat("/after-attacks", 0)
	if err != nil || attr.Size != 13 {
		t.Fatalf("post-attack stat: %+v %v", attr, err)
	}
}

// TestServerRejectsOversizeFrameDeclaration confirms the length guard.
func TestServerRejectsOversizeFrameDeclaration(t *testing.T) {
	_, addr, _ := startServer(t)
	conn := rawConn(t, addr)
	handshake(t, conn)
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], maxMessage+1)
	hdr[4] = OpQuery
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	n, _ := conn.Read(buf)
	// Either an error frame or a dropped connection is acceptable; a
	// hang is not (the deadline catches that as a timeout error, which
	// also passes — the point is the server did not allocate 4 GB).
	_ = n
}

// TestRemoteStats exercises the monitoring op.
func TestRemoteStats(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr, "mon")
	fd, err := c.PCreat("/s", core.CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}
	snap, err := c.StatsV2()
	if err != nil {
		t.Fatal(err)
	}
	if findValue(t, snap.Gauges, "buffer.capacity_pages") == 0 || findValue(t, snap.Gauges, "catalog.relations") == 0 {
		t.Fatalf("stats look empty: %+v", snap.Gauges)
	}
	if findValue(t, snap.Gauges, "txn.last_commit_unix_ns") == 0 {
		t.Fatal("no commit time recorded")
	}
	// The contention gauges the pool and the status cache publish;
	// findValue fails on a missing name.
	for _, name := range []string{"buffer.overcommits", "buffer.load_waits", "txn.status_cache_misses"} {
		findValue(t, snap.Gauges, name)
	}
	if findValue(t, snap.Gauges, "txn.status_cache_hits") == 0 {
		t.Error("no status-cache hit recorded, though a create committed before the snapshot")
	}
}

// TestOpcodeWireNumbers pins every opcode to its number on the wire: a
// client and a server built from different commits must agree on them,
// so retiring an op leaves a hole (21, the old stats op) rather than
// renumbering the ops after it.
func TestOpcodeWireNumbers(t *testing.T) {
	want := []struct {
		op   byte
		num  byte
		name string
	}{
		{OpBegin, 1, "begin"}, {OpCommit, 2, "commit"}, {OpAbort, 3, "abort"},
		{OpCreat, 4, "creat"}, {OpOpen, 5, "open"}, {OpClose, 6, "close"},
		{OpRead, 7, "read"}, {OpWrite, 8, "write"}, {OpLseek, 9, "lseek"},
		{OpTruncate, 10, "truncate"}, {OpMkdir, 11, "mkdir"}, {OpUnlink, 12, "unlink"},
		{OpRename, 13, "rename"}, {OpReadDir, 14, "readdir"}, {OpStat, 15, "stat"},
		{OpQuery, 16, "query"}, {OpCall, 17, "call"}, {OpDefineType, 18, "deftype"},
		{OpMigrate, 19, "migrate"}, {OpVacuum, 20, "vacuum"},
		{OpSetType, 22, "settype"}, {OpStatsV2, 23, "statsv2"}, {OpScrub, 24, "scrub"},
		{OpWaitProfile, 25, "waitprofile"},
	}
	for _, w := range want {
		if w.op != w.num {
			t.Errorf("op %s = %d on the wire, want %d", w.name, w.op, w.num)
		}
		if got := OpName(w.num); got != w.name {
			t.Errorf("OpName(%d) = %q, want %q", w.num, got, w.name)
		}
	}
	if len(opNames) != 26 {
		t.Errorf("opNames has %d slots: an opcode was added or removed without updating this table", len(opNames))
	}
	if got := OpName(21); got != "op21" {
		t.Errorf("OpName(21) = %q: the retired stats op must stay unnamed", got)
	}
}

// TestRetiredStatsOpcodeRejected: a client that predates the removal of
// the legacy stats op sends opcode 21. It must get the ordinary
// unknown-opcode error reply, and the connection must stay usable.
func TestRetiredStatsOpcodeRejected(t *testing.T) {
	_, addr, _ := startServer(t)
	conn := rawConn(t, addr)
	handshake(t, conn)
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	if err := writeMsg(conn, 21, nil); err != nil {
		t.Fatal(err)
	}
	status, payload, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if status != statusErr {
		t.Fatalf("opcode 21 reply status = %d, want an error reply", status)
	}
	if re := decodeErrFrame(payload); !strings.Contains(re.Msg, "unknown opcode 21") {
		t.Fatalf("opcode 21 error = %q, want unknown opcode 21", re.Msg)
	}

	if err := writeMsg(conn, OpStatsV2, nil); err != nil {
		t.Fatal(err)
	}
	status, payload, err = readMsg(conn)
	if err != nil {
		t.Fatalf("connection unusable after opcode 21: %v", err)
	}
	if status != statusOK {
		t.Fatalf("statsv2 after opcode 21: status %d (%s)", status, payload)
	}
	if _, err := obs.DecodeSnapshot(payload); err != nil {
		t.Fatalf("statsv2 after opcode 21: %v", err)
	}
}
