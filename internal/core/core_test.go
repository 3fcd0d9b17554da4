package core

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/device"
	"repro/internal/heap"
	"repro/internal/value"
)

// newDB builds an in-memory database with a deterministic clock.
func newDB(t *testing.T) (*DB, *Session) {
	t.Helper()
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	var mu sync.Mutex
	tick := int64(1 << 20)
	db, err := Open(sw, Options{
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
	return db, db.NewSession("mao")
}

func TestCreateWriteRead(t *testing.T) {
	_, s := newDB(t)
	f, err := s.Create("/hello.txt", CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello, inversion")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadFile("/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello, inversion" {
		t.Fatalf("read %q", got)
	}
	attr, err := s.Stat("/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if attr.Size != 16 || attr.Owner != "mao" {
		t.Fatalf("attr = %+v", attr)
	}
}

func TestCreateExistingFails(t *testing.T) {
	_, s := newDB(t)
	if err := s.WriteFile("/a", []byte("x"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/a", CreateOpts{}); !errors.Is(err, ErrExist) {
		t.Fatalf("create existing: %v", err)
	}
}

func TestLargeFileMultiChunk(t *testing.T) {
	_, s := newDB(t)
	data := make([]byte, 3*ChunkSize+1234)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := s.WriteFile("/big", data, CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadFile("/big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-chunk round trip failed")
	}
}

func TestSeekAndPartialRW(t *testing.T) {
	_, s := newDB(t)
	data := make([]byte, 2*ChunkSize)
	if err := s.WriteFile("/f", data, CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	f, err := s.OpenWrite("/f")
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite a region spanning the chunk boundary.
	patch := []byte("PATCH-ACROSS-BOUNDARY")
	off := int64(ChunkSize - 10)
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(patch); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[off:off+int64(len(patch))], patch) {
		t.Fatal("patch not applied")
	}
	if got[off-1] != 0 || got[off+int64(len(patch))] != 0 {
		t.Fatal("patch damaged neighbours")
	}
	if int64(len(got)) != 2*ChunkSize {
		t.Fatalf("size changed to %d", len(got))
	}
}

func TestSparseFileReadsZeros(t *testing.T) {
	_, s := newDB(t)
	f, err := s.Create("/sparse", CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(5*ChunkSize, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadFile("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != 5*ChunkSize+4 {
		t.Fatalf("size = %d", len(got))
	}
	for i := 0; i < 5*ChunkSize; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %d", i, got[i])
		}
	}
	if string(got[5*ChunkSize:]) != "tail" {
		t.Fatal("tail lost")
	}
}

func TestWriteCoalescing(t *testing.T) {
	db, s := newDB(t)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	f, err := s.Create("/coalesce", CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Many small sequential writes within one transaction must
	// coalesce into few chunk records, not one record per write.
	for i := 0; i < 1000; i++ {
		if _, err := f.Write(bytes.Repeat([]byte{byte(i)}, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// 10000 bytes = 2 chunks.
	rel := db.dataRel(mustOID(t, db, "/coalesce"))
	n := 0
	if err := rel.Scan(db.mgr.CurrentSnapshot(), func(_ anyTID, _ []byte) (bool, error) {
		n++
		return false, nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("1000 small writes produced %d chunk records, want 2", n)
	}
}

func TestTransactionAtomicity(t *testing.T) {
	_, s := newDB(t)
	if err := s.WriteFile("/stable", []byte("before"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/stable", []byte("after"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/new-in-tx", CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	// Reads inside the tx see its changes.
	got, err := s.ReadFile("/stable")
	if err != nil || string(got) != "after" {
		t.Fatalf("in-tx read: %q %v", got, err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	got, err = s.ReadFile("/stable")
	if err != nil || string(got) != "before" {
		t.Fatalf("post-abort read: %q %v", got, err)
	}
	if _, err := s.Stat("/new-in-tx"); !isNotExist(err) {
		t.Fatalf("aborted create visible: %v", err)
	}
}

func TestMultiFileAtomicCommit(t *testing.T) {
	// The paper's motivating example: checking in several source files
	// at once.
	db, s := newDB(t)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/src-a.c", "/src-b.c", "/src-c.c"} {
		if err := s.WriteFile(name, []byte("fixed "+name), CreateOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	// Not visible to others before commit.
	other := db.NewSession("other")
	if _, err := other.Stat("/src-a.c"); !isNotExist(err) {
		t.Fatalf("uncommitted checkin visible: %v", err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/src-a.c", "/src-b.c", "/src-c.c"} {
		if _, err := other.Stat(name); err != nil {
			t.Fatalf("committed checkin missing %s: %v", name, err)
		}
	}
}

func TestTimeTravelFileVersions(t *testing.T) {
	db, s := newDB(t)
	if err := s.WriteFile("/doc", []byte("version one"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	t1 := db.mgr.LastCommitTime()
	if err := s.WriteFile("/doc", []byte("version TWO, longer"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	t2 := db.mgr.LastCommitTime()

	cur, err := s.ReadFile("/doc")
	if err != nil || string(cur) != "version TWO, longer" {
		t.Fatalf("current: %q %v", cur, err)
	}
	old, err := s.ReadFileAsOf("/doc", t1)
	if err != nil || string(old) != "version one" {
		t.Fatalf("asof t1: %q %v", old, err)
	}
	again, err := s.ReadFileAsOf("/doc", t2)
	if err != nil || string(again) != "version TWO, longer" {
		t.Fatalf("asof t2: %q %v", again, err)
	}
	// Historical attr sees historical size.
	attr, err := s.StatAsOf("/doc", t1)
	if err != nil || attr.Size != int64(len("version one")) {
		t.Fatalf("asof stat: %+v %v", attr, err)
	}
}

func TestUndeleteViaTimeTravel(t *testing.T) {
	db, s := newDB(t)
	if err := s.WriteFile("/precious", []byte("do not lose"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	before := db.mgr.LastCommitTime()
	if err := s.Unlink("/precious"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat("/precious"); !isNotExist(err) {
		t.Fatalf("unlinked file still visible: %v", err)
	}
	// "it allows users to undelete files removed accidentally"
	data, err := s.ReadFileAsOf("/precious", before)
	if err != nil || string(data) != "do not lose" {
		t.Fatalf("undelete read: %q %v", data, err)
	}
	// Restore it.
	if err := s.WriteFile("/precious", data, CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadFile("/precious")
	if err != nil || string(got) != "do not lose" {
		t.Fatalf("restored: %q %v", got, err)
	}
}

func TestHistoricalOpenNotWritable(t *testing.T) {
	db, s := newDB(t)
	if err := s.WriteFile("/h", []byte("x"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	f, err := s.OpenAsOf("/h", db.mgr.LastCommitTime())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("y")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("historical write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectories(t *testing.T) {
	_, s := newDB(t)
	if err := s.MkdirAll("/users/mao/projects"); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/users/mao/notes.txt", []byte("n"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	entries, err := s.ReadDir("/users/mao")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name != "notes.txt" || entries[1].Name != "projects" {
		t.Fatalf("readdir = %+v", entries)
	}
	if !entries[1].Attr.IsDir() {
		t.Fatal("projects not a directory")
	}
	// Non-empty directory cannot be removed.
	if err := s.Unlink("/users/mao"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("unlink non-empty: %v", err)
	}
	// Path reconstruction (used by dir(file) in queries).
	db := s.DB()
	oid, err := db.Resolve(db.mgr.CurrentSnapshot(), "/users/mao/notes.txt")
	if err != nil {
		t.Fatal(err)
	}
	p, err := db.PathOf(db.mgr.CurrentSnapshot(), oid)
	if err != nil || p != "/users/mao/notes.txt" {
		t.Fatalf("PathOf = %q %v", p, err)
	}
}

func TestNamingTableShape(t *testing.T) {
	// Table 1 of the paper: the entries constructing "/etc/passwd".
	db, s := newDB(t)
	if err := s.Mkdir("/etc"); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/etc/passwd", []byte("root:0"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	snap := db.mgr.CurrentSnapshot()
	// Root row: ("/", 0, RootDirOID).
	name, parent, _, err := db.NamingEntry(snap, RootDirOID)
	if err != nil || name != "/" || parent != 0 {
		t.Fatalf("root naming row: %q %d %v", name, parent, err)
	}
	etc, err := db.Resolve(snap, "/etc")
	if err != nil {
		t.Fatal(err)
	}
	name, parent, _, err = db.NamingEntry(snap, etc)
	if err != nil || name != "etc" || parent != RootDirOID {
		t.Fatalf("etc naming row: %q %d %v", name, parent, err)
	}
	passwd, err := db.Resolve(snap, "/etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	name, parent, _, err = db.NamingEntry(snap, passwd)
	if err != nil || name != "passwd" || parent != etc {
		t.Fatalf("passwd naming row: %q %d %v", name, parent, err)
	}
	// The chunk table is named inv<oid>.
	ri, ok := db.Catalog().Relation(DataRelName(passwd))
	if !ok || ri.OID != passwd {
		t.Fatalf("data relation: %+v ok=%v", ri, ok)
	}
}

func TestRename(t *testing.T) {
	db, s := newDB(t)
	if err := s.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Mkdir("/b"); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/a/f", []byte("data"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	before := db.mgr.LastCommitTime()
	if err := s.Rename("/a/f", "/b/g"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat("/a/f"); !isNotExist(err) {
		t.Fatal("old name still bound")
	}
	got, err := s.ReadFile("/b/g")
	if err != nil || string(got) != "data" {
		t.Fatalf("renamed read: %q %v", got, err)
	}
	// History: under the old name before the rename.
	old, err := s.ReadFileAsOf("/a/f", before)
	if err != nil || string(old) != "data" {
		t.Fatalf("historical old name: %q %v", old, err)
	}
}

func TestCrashRecovery(t *testing.T) {
	db, s := newDB(t)
	if err := s.WriteFile("/durable", []byte("committed data"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	// Uncommitted transaction in flight at the crash.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/ghost", []byte("never committed"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	db2, err := db.Recover()
	if err != nil {
		t.Fatal(err)
	}
	s2 := db2.NewSession("mao")
	got, err := s2.ReadFile("/durable")
	if err != nil || string(got) != "committed data" {
		t.Fatalf("committed file after crash: %q %v", got, err)
	}
	if _, err := s2.Stat("/ghost"); !isNotExist(err) {
		t.Fatalf("uncommitted file visible after crash: %v", err)
	}
}

func TestCrashMidTransactionDataFlushed(t *testing.T) {
	// Even if the in-flight transaction's dirty pages reached disk
	// (cache pressure), its records must be invisible after recovery.
	db, s := newDB(t)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 4*ChunkSize)
	if err := s.WriteFile("/ghost", big, CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Pool().FlushAll(); err != nil { // pages hit "disk"
		t.Fatal(err)
	}
	db.Crash()
	db2, err := db.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.NewSession("x").Stat("/ghost"); !isNotExist(err) {
		t.Fatalf("flushed-but-uncommitted file visible: %v", err)
	}
}

func TestTypedFilesAndFunctions(t *testing.T) {
	_, s := newDB(t)
	if err := s.DefineType("ASCII document", "plain text"); err != nil {
		t.Fatal(err)
	}
	err := s.DefineFunction(catalog.FuncInfo{
		Name: "linecount", TypeName: "ASCII document", Doc: "number of lines",
	}, func(c *FuncCtx) (Value, error) {
		data, err := c.Contents()
		if err != nil {
			return value.Null(), err
		}
		return value.Int(int64(bytes.Count(data, []byte("\n")))), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/doc.txt", []byte("a\nb\nc\n"), CreateOpts{Type: "ASCII document"}); err != nil {
		t.Fatal(err)
	}
	v, err := s.Call("linecount", "/doc.txt")
	if err != nil || v.I != 3 {
		t.Fatalf("linecount = %v, %v", v, err)
	}
	// Type checking: calling on a file of the wrong type fails.
	if err := s.WriteFile("/untyped", []byte("x\n"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call("linecount", "/untyped"); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("type check: %v", err)
	}
	// Undefined type on create is rejected.
	if _, err := s.Create("/bad", CreateOpts{Type: "no-such-type"}); err == nil {
		t.Fatal("created file with undefined type")
	}
	// Builtins.
	v, err = s.Call("owner", "/doc.txt")
	if err != nil || v.S != "mao" {
		t.Fatalf("owner = %v %v", v, err)
	}
	v, err = s.Call("size", "/doc.txt")
	if err != nil || v.I != 6 {
		t.Fatalf("size = %v %v", v, err)
	}
	v, err = s.Call("dir", "/doc.txt")
	if err != nil || v.S != "/" {
		t.Fatalf("dir = %v %v", v, err)
	}
}

func TestCompressedFiles(t *testing.T) {
	_, s := newDB(t)
	// Compressible data spanning several chunks.
	data := bytes.Repeat([]byte("inversion file system "), 2000)
	if err := s.WriteFile("/z", data, CreateOpts{Flags: FlagCompressed}); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadFile("/z")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("compressed round trip failed: %d vs %d bytes, %v", len(got), len(data), err)
	}
	// Random access into the middle.
	f, err := s.Open("/z")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	off := int64(ChunkSize + 777)
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[off:off+100]) {
		t.Fatal("random access into compressed file wrong")
	}
	// Stored sizes show compression happened.
	raw, stored, err := f.StoredSizes()
	if err != nil {
		t.Fatal(err)
	}
	var rawSum, storedSum int
	for i := range raw {
		rawSum += raw[i]
		storedSum += stored[i]
	}
	if rawSum != len(data) {
		t.Fatalf("raw sizes sum to %d, want %d", rawSum, len(data))
	}
	if storedSum >= rawSum/2 {
		t.Fatalf("no real compression: stored %d raw %d", storedSum, rawSum)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestIncompressibleCompressedFile(t *testing.T) {
	_, s := newDB(t)
	data := make([]byte, 2*ChunkSize)
	rngState := uint64(12345)
	for i := range data {
		rngState = rngState*6364136223846793005 + 1442695040888963407
		data[i] = byte(rngState >> 56)
	}
	if err := s.WriteFile("/rand", data, CreateOpts{Flags: FlagCompressed}); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadFile("/rand")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("incompressible round trip failed: %v", err)
	}
}

func TestTruncate(t *testing.T) {
	_, s := newDB(t)
	data := make([]byte, 2*ChunkSize+100)
	for i := range data {
		data[i] = 0xAA
	}
	if err := s.WriteFile("/t", data, CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	f, err := s.OpenWrite("/t")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(ChunkSize + 50); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadFile("/t")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != ChunkSize+50 {
		t.Fatalf("size after truncate = %d", len(got))
	}
	for _, b := range got {
		if b != 0xAA {
			t.Fatal("truncate damaged contents")
		}
	}
	// Grow back: the cut region must read zeros, not resurrect 0xAA.
	f, err = s.OpenWrite("/t")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(2 * ChunkSize); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = s.ReadFile("/t")
	if err != nil {
		t.Fatal(err)
	}
	for i := ChunkSize + 50; i < len(got); i++ {
		if got[i] != 0 {
			t.Fatalf("regrown byte %d = %x, want 0", i, got[i])
		}
	}
}

func TestMigrationPreservesContents(t *testing.T) {
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	sw.Register(device.NewJukebox(device.DefaultJukebox(), nil))
	db, err := Open(sw, Options{Buffers: 64, DefaultClass: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession("mao")
	data := make([]byte, 3*ChunkSize)
	for i := range data {
		data[i] = byte(i)
	}
	if err := s.WriteFile("/dataset", data, CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Migrate("/dataset", "jukebox"); err != nil {
		t.Fatal(err)
	}
	oid, err := db.Resolve(db.mgr.CurrentSnapshot(), "/dataset")
	if err != nil {
		t.Fatal(err)
	}
	if class, _ := sw.HomeClass(oid); class != "jukebox" {
		t.Fatalf("file on %q after migrate", class)
	}
	got, err := s.ReadFile("/dataset")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("contents after migration: %v", err)
	}
	// And it is still writable, transparently.
	if err := s.WriteFile("/dataset", []byte("new"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
}

func TestVacuumKeepsCurrentDropsOld(t *testing.T) {
	db, s := newDB(t)
	if err := s.WriteFile("/v", []byte("one"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.WriteFile("/v", bytes.Repeat([]byte{byte('a' + i)}, 10), CreateOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := db.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed == 0 || stats.Archived == 0 {
		t.Fatalf("vacuum did nothing: %+v", stats)
	}
	got, err := s.ReadFile("/v")
	if err != nil || string(got) != "eeeeeeeeee" {
		t.Fatalf("current version after vacuum: %q %v", got, err)
	}
	// A second write after vacuum still works (indexes consistent).
	if err := s.WriteFile("/v", []byte("post-vacuum"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	got, err = s.ReadFile("/v")
	if err != nil || string(got) != "post-vacuum" {
		t.Fatalf("post-vacuum write: %q %v", got, err)
	}
}

func TestConcurrentSessionsLocking(t *testing.T) {
	db, _ := newDB(t)
	s1 := db.NewSession("a")
	s2 := db.NewSession("b")
	if err := s1.WriteFile("/shared", []byte("init"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Begin(); err != nil {
		t.Fatal(err)
	}
	f, err := s1.OpenWrite("/shared")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("from s1")); err != nil {
		t.Fatal(err)
	}
	waits := db.Manager().Locks().Waits()
	done := make(chan []byte, 1)
	go func() {
		// s2 blocks on the lock until s1 commits.
		data, err := s2.ReadFile("/shared")
		if err != nil {
			done <- nil
			return
		}
		done <- data
	}()
	// Commit only once s2 is parked behind s1's exclusive lock. (The
	// seed committed straight away, and what s2 read then depended on
	// which of the two got there first.)
	for deadline := time.Now().Add(10 * time.Second); db.Manager().Locks().Waits() == waits; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("s2 never queued behind s1's exclusive lock")
		}
	}
	select {
	case got := <-done:
		t.Fatalf("s2 read %q through s1's exclusive lock", got)
	default:
	}
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	// s2's transaction began while s1's was running, so its snapshot is
	// the state before s1: waiting for the lock makes it wait, it does
	// not move its snapshot.
	if got := <-done; string(got) != "init" {
		t.Fatalf("s2 read %q from a snapshot that predates s1's commit", got)
	}
	// A read that begins after the commit sees s1's data.
	if got, err := s2.ReadFile("/shared"); err != nil || string(got) != "from s1" {
		t.Fatalf("s2 read %q (%v) after s1 committed", got, err)
	}
}

func TestReadDirAsOf(t *testing.T) {
	db, s := newDB(t)
	if err := s.WriteFile("/old-file", []byte("x"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	before := db.mgr.LastCommitTime()
	if err := s.WriteFile("/new-file", []byte("y"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Unlink("/old-file"); err != nil {
		t.Fatal(err)
	}
	now, err := s.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	then, err := s.ReadDirAsOf("/", before)
	if err != nil {
		t.Fatal(err)
	}
	if len(now) != 1 || now[0].Name != "new-file" {
		t.Fatalf("now = %+v", now)
	}
	if len(then) != 1 || then[0].Name != "old-file" {
		t.Fatalf("then = %+v", then)
	}
}

// helpers

type anyTID = heap.TID

func mustOID(t *testing.T, db *DB, path string) device.OID {
	t.Helper()
	oid, err := db.Resolve(db.mgr.CurrentSnapshot(), path)
	if err != nil {
		t.Fatal(err)
	}
	return oid
}
