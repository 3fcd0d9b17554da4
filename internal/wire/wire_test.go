package wire

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/typefuncs"
)

func newTestDB(t testing.TB) *core.DB {
	t.Helper()
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	var mu sync.Mutex
	tick := int64(1 << 40)
	db, err := core.Open(sw, core.Options{
		Buffers: 128,
		TimeSource: func() int64 {
			mu.Lock()
			defer mu.Unlock()
			tick += 1000
			return tick
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := typefuncs.RegisterAll(db.NewSession("setup")); err != nil {
		t.Fatal(err)
	}
	return db
}

func startServer(t *testing.T) (*Server, string, *core.DB) {
	t.Helper()
	return startServerCfg(t, ServerConfig{}, nil)
}

// startServerCfg is startServer with explicit lifecycle settings and an
// optional request hook (installed before Listen, as required).
func startServerCfg(t *testing.T, cfg ServerConfig, hook func(op byte, payload []byte)) (*Server, string, *core.DB) {
	t.Helper()
	db := newTestDB(t)
	srv := NewServerWith(db, cfg)
	srv.SetLogf(func(string, ...any) {})
	srv.testHook = hook
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, db
}

func dial(t *testing.T, addr, owner string) *Client {
	t.Helper()
	c, err := Dial(addr, owner)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRemoteFileIO(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr, "mao")

	fd, err := c.PCreat("/remote.txt", core.CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PWrite(fd, []byte("over the wire")); err != nil {
		t.Fatal(err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}

	fd, err = c.POpen("/remote.txt", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := c.PRead(fd, buf)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf[:n]) != "over the wire" {
		t.Fatalf("read %q", buf[:n])
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteSeekAndTruncate(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr, "mao")
	fd, err := c.PCreat("/s", core.CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PWrite(fd, bytes.Repeat([]byte("ab"), 100)); err != nil {
		t.Fatal(err)
	}
	pos, err := c.PLseek(fd, 10, SeekSet)
	if err != nil || pos != 10 {
		t.Fatalf("seek: %d %v", pos, err)
	}
	buf := make([]byte, 2)
	if _, err := c.PRead(fd, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ab" {
		t.Fatalf("read at 10: %q", buf)
	}
	if err := c.PTruncate(fd, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}
	attr, err := c.Stat("/s", 0)
	if err != nil || attr.Size != 4 {
		t.Fatalf("stat after truncate: %+v %v", attr, err)
	}
}

func TestRemoteTransactions(t *testing.T) {
	_, addr, _ := startServer(t)
	c1 := dial(t, addr, "alice")
	c2 := dial(t, addr, "bob")

	if err := c1.PBegin(); err != nil {
		t.Fatal(err)
	}
	fd, err := c1.PCreat("/tx-file", core.CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.PWrite(fd, []byte("tx data")); err != nil {
		t.Fatal(err)
	}
	// Invisible to c2 before commit.
	if _, err := c2.Stat("/tx-file", 0); err == nil {
		t.Fatal("uncommitted file visible remotely")
	}
	if err := c1.PCommit(); err != nil {
		t.Fatal(err)
	}
	attr, err := c2.Stat("/tx-file", 0)
	if err != nil || attr.Size != 7 {
		t.Fatalf("after commit: %+v %v", attr, err)
	}
}

func TestRemoteAbortRollsBack(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr, "mao")
	if err := c.PBegin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PCreat("/doomed", core.CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := c.PAbort(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/doomed", 0); err == nil {
		t.Fatal("aborted create visible")
	}
}

func TestRemoteTimeTravel(t *testing.T) {
	_, addr, db := startServer(t)
	c := dial(t, addr, "mao")
	fd, err := c.PCreat("/tt", core.CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PWrite(fd, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}
	before := db.Manager().LastCommitTime()

	fd, err = c.POpen("/tt", true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PTruncate(fd, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PWrite(fd, []byte("v2!")); err != nil {
		t.Fatal(err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}

	// Historical open via timestamp parameter.
	fd, err = c.POpen("/tt", false, before)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := c.PRead(fd, buf)
	if string(buf[:n]) != "v1" {
		t.Fatalf("historical read: %q", buf[:n])
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}
	// Historical writes rejected.
	if _, err := c.POpen("/tt", true, before); err == nil {
		t.Fatal("historical open for write allowed")
	}
}

func TestRemoteNamespaceOps(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr, "mao")
	if err := c.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	fd, err := c.PCreat("/dir/a", core.CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}
	entries, err := c.ReadDir("/dir", 0)
	if err != nil || len(entries) != 1 || entries[0].Name != "a" {
		t.Fatalf("readdir: %+v %v", entries, err)
	}
	if err := c.Rename("/dir/a", "/dir/b"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlink("/dir/b"); err != nil {
		t.Fatal(err)
	}
	entries, err = c.ReadDir("/dir", 0)
	if err != nil || len(entries) != 0 {
		t.Fatalf("readdir after unlink: %+v %v", entries, err)
	}
}

func TestRemoteQueryAndCall(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr, "mao")
	fd, err := c.PCreat("/q.txt", core.CreateOpts{Type: typefuncs.TypeASCII})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PWrite(fd, []byte("one\ntwo\n")); err != nil {
		t.Fatal(err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}
	v, err := c.Call("linecount", "/q.txt")
	if err != nil || v.I != 2 {
		t.Fatalf("remote call: %v %v", v, err)
	}
	res, err := c.Query(`retrieve (filename, size(file)) where owner(file) = "mao"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "q.txt" || res.Rows[0][1].I != 8 {
		t.Fatalf("remote query rows: %+v", res.Rows)
	}
	if err := c.DefineType("newtype", "doc"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := c.Vacuum(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteErrorsSurface(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr, "mao")
	_, err := c.POpen("/does-not-exist", false, 0)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("expected RemoteError, got %v", err)
	}
	if err := c.PClose(FD(99)); err == nil {
		t.Fatal("bad fd accepted")
	}
}

func TestConnectionDropAbortsTx(t *testing.T) {
	_, addr, db := startServer(t)
	c := dial(t, addr, "mao")
	if err := c.PBegin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PCreat("/drop", core.CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// The server must abort the dropped connection's transaction; poll
	// until the lock is released and visibility confirms the rollback.
	s := db.NewSession("check")
	for i := 0; i < 100; i++ {
		if _, err := s.Stat("/drop"); err != nil {
			return // invisible: rolled back
		}
	}
	t.Fatal("dropped connection's transaction not aborted")
}
