package core

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/txn"
)

// TestPropertyFileMatchesByteSlice drives a file through random
// sequences of writes, seeks, truncates, and reads inside transactions
// and checks every observation against a plain byte-slice model.
func TestPropertyFileMatchesByteSlice(t *testing.T) {
	f := func(seed int64) bool {
		_, s := newDB(t)
		rng := newRand(seed)
		if err := s.Begin(); err != nil {
			return false
		}
		fh, err := s.Create("/model", CreateOpts{})
		if err != nil {
			return false
		}
		var model []byte
		const maxSize = 3*ChunkSize + 500
		for op := 0; op < 60; op++ {
			switch rng.Intn(4) {
			case 0: // write at random offset
				off := rng.Intn(maxSize / 2)
				n := 1 + rng.Intn(ChunkSize)
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(rng.Intn(256))
				}
				if _, err := fh.WriteAt(data, int64(off)); err != nil {
					t.Logf("WriteAt: %v", err)
					return false
				}
				if off+n > len(model) {
					model = append(model, make([]byte, off+n-len(model))...)
				}
				copy(model[off:], data)
			case 1: // sequential append via Write
				n := 1 + rng.Intn(500)
				data := bytes.Repeat([]byte{byte(op)}, n)
				if _, err := fh.Seek(0, io.SeekEnd); err != nil {
					return false
				}
				if _, err := fh.Write(data); err != nil {
					return false
				}
				model = append(model, data...)
			case 2: // truncate
				n := rng.Intn(maxSize)
				if err := fh.Truncate(int64(n)); err != nil {
					t.Logf("Truncate: %v", err)
					return false
				}
				if n <= len(model) {
					model = model[:n]
				} else {
					model = append(model, make([]byte, n-len(model))...)
				}
			case 3: // read a random region and compare
				if len(model) == 0 {
					continue
				}
				off := rng.Intn(len(model))
				n := 1 + rng.Intn(2*ChunkSize)
				buf := make([]byte, n)
				got, err := fh.ReadAt(buf, int64(off))
				if err != nil && err != io.EOF {
					t.Logf("ReadAt: %v", err)
					return false
				}
				want := model[off:]
				if len(want) > got {
					want = want[:got]
				}
				if !bytes.Equal(buf[:got], want[:got]) {
					t.Logf("mismatch at %d len %d", off, n)
					return false
				}
			}
			if fh.Size() != int64(len(model)) {
				t.Logf("size %d != model %d", fh.Size(), len(model))
				return false
			}
		}
		if err := fh.Close(); err != nil {
			return false
		}
		if err := s.Commit(); err != nil {
			return false
		}
		// Post-commit, the whole file matches.
		got, err := s.ReadFile("/model")
		if err != nil {
			return false
		}
		return bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockBetweenSessions(t *testing.T) {
	db, _ := newDB(t)
	s1 := db.NewSession("a")
	s2 := db.NewSession("b")
	if err := s1.WriteFile("/x", []byte("x"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := s1.WriteFile("/y", []byte("y"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Begin(); err != nil {
		t.Fatal(err)
	}
	f1, err := s1.OpenWrite("/x")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s2.OpenWrite("/y")
	if err != nil {
		t.Fatal(err)
	}
	_ = f1
	_ = f2
	// s1 wants /y (held by s2); s2 wants /x (held by s1): a cycle.
	// Exactly one side must get ErrDeadlock; it aborts at once
	// (releasing its locks) and the other side's acquire then succeeds.
	errc := make(chan error, 1)
	go func() {
		_, err := s1.OpenWrite("/y")
		if errors.Is(err, txn.ErrDeadlock) {
			_ = s1.Abort() // victim releases so the survivor can run
		}
		errc <- err
	}()
	_, err2 := s2.OpenWrite("/x")
	if errors.Is(err2, txn.ErrDeadlock) {
		_ = s2.Abort()
	}
	err1 := <-errc

	victim1 := errors.Is(err1, txn.ErrDeadlock)
	victim2 := errors.Is(err2, txn.ErrDeadlock)
	if victim1 == victim2 {
		t.Fatalf("want exactly one deadlock victim, got err1=%v err2=%v", err1, err2)
	}
	if victim1 {
		if err2 != nil {
			t.Fatalf("survivor s2 failed: %v", err2)
		}
		if err := s2.Commit(); err != nil {
			t.Fatal(err)
		}
	} else {
		if err1 != nil {
			t.Fatalf("survivor s1 failed: %v", err1)
		}
		if err := s1.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNoHistoryVacuumDiscards(t *testing.T) {
	db, s := newDB(t)
	if err := s.WriteFile("/nohist", []byte("gen0"), CreateOpts{Flags: FlagNoHistory}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/hist", []byte("gen0"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.WriteFile("/nohist", []byte("gen1"), CreateOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteFile("/hist", []byte("gen1"), CreateOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	before := archiveCount(t, db)
	stats, err := db.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed == 0 {
		t.Fatalf("vacuum removed nothing: %+v", stats)
	}
	after := archiveCount(t, db)
	// The history file's dead chunks were archived; the no-history
	// file's were discarded. Both also have metadata versions archived,
	// so just assert the archive grew and both files still read.
	if after <= before {
		t.Fatal("archive did not grow")
	}
	for _, p := range []string{"/nohist", "/hist"} {
		got, err := s.ReadFile(p)
		if err != nil || string(got) != "gen1" {
			t.Fatalf("%s after vacuum: %q %v", p, got, err)
		}
	}
}

func archiveCount(t *testing.T, db *DB) int {
	t.Helper()
	n := 0
	err := db.archive.Scan(db.mgr.CurrentSnapshot(), func(heapTID, []byte) (bool, error) {
		n++
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSetFileType(t *testing.T) {
	_, s := newDB(t)
	if err := s.DefineType("log", "log files"); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/app.log", []byte("x"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetFileType("/app.log", "log"); err != nil {
		t.Fatal(err)
	}
	attr, err := s.Stat("/app.log")
	if err != nil || attr.Type != "log" {
		t.Fatalf("attr = %+v %v", attr, err)
	}
	if err := s.SetFileType("/app.log", "undefined-type"); err == nil {
		t.Fatal("undefined type accepted")
	}
	// Untype.
	if err := s.SetFileType("/app.log", ""); err != nil {
		t.Fatal(err)
	}
}

func TestPathEdgeCases(t *testing.T) {
	_, s := newDB(t)
	if err := s.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/d/f", []byte("x"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	// Path normalisation.
	for _, p := range []string{"/d/f", "//d//f", "/d/./f", "/d/../d/f", "/x/../d/f"} {
		if _, err := s.Stat(p); err != nil {
			t.Errorf("Stat(%q): %v", p, err)
		}
	}
	// Relative and empty paths rejected.
	for _, p := range []string{"", "d/f", "./d"} {
		if _, err := s.Stat(p); !errors.Is(err, ErrBadPath) {
			t.Errorf("Stat(%q): %v", p, err)
		}
	}
	// ".." above root stays at root.
	if _, err := s.Stat("/../../d/f"); err != nil {
		t.Errorf("above-root path: %v", err)
	}
	// Files are not directories.
	if _, err := s.Stat("/d/f/g"); !errors.Is(err, ErrNotDirectory) {
		t.Errorf("file-as-dir: %v", err)
	}
	if _, err := s.ReadDir("/d/f"); !errors.Is(err, ErrNotDirectory) {
		t.Errorf("ReadDir on file: %v", err)
	}
	// Opening a directory as a file fails.
	if _, err := s.Open("/d"); !errors.Is(err, ErrIsDirectory) {
		t.Errorf("Open(dir): %v", err)
	}
	// Root cannot be created or removed.
	if err := s.Unlink("/"); err == nil {
		t.Error("unlinked root")
	}
	if _, err := s.Create("/", CreateOpts{}); err == nil {
		t.Error("created root")
	}
}

func TestRenameDirectoryMovesSubtree(t *testing.T) {
	_, s := newDB(t)
	if err := s.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/a/b/deep", []byte("d"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Rename("/a", "/z"); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadFile("/z/b/deep")
	if err != nil || string(got) != "d" {
		t.Fatalf("after dir rename: %q %v", got, err)
	}
	if _, err := s.Stat("/a/b/deep"); !isNotExist(err) {
		t.Fatalf("old subtree path alive: %v", err)
	}
}

func TestFileSizeLimit(t *testing.T) {
	_, s := newDB(t)
	f, err := s.Create("/huge", CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Writing right at the 17.6 TB boundary is rejected...
	if _, err := f.WriteAt([]byte("x"), MaxFileSize); !errors.Is(err, ErrFileTooBig) {
		t.Fatalf("over-limit write: %v", err)
	}
	// ...but a sparse write just under it works (only the tail chunk
	// is materialised).
	if _, err := f.WriteAt([]byte("end"), MaxFileSize-10); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	attr, err := s.Stat("/huge")
	if err != nil || attr.Size != MaxFileSize-7 {
		t.Fatalf("attr = %+v %v", attr, err)
	}
	// Reading the tail back.
	fr, err := s.Open("/huge")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := fr.ReadAt(buf, MaxFileSize-10); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "end" {
		t.Fatalf("tail = %q", buf)
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionTransactionErrors(t *testing.T) {
	_, s := newDB(t)
	if err := s.Commit(); err == nil {
		t.Fatal("commit without begin")
	}
	if err := s.Abort(); err == nil {
		t.Fatal("abort without begin")
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); !errors.Is(err, txn.ErrNestedTx) {
		t.Fatalf("nested begin: %v", err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestAbortInvalidatesOpenFiles(t *testing.T) {
	_, s := newDB(t)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	f, err := s.Create("/af", CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after session abort: %v", err)
	}
}

func TestDoubleCloseAndUseAfterClose(t *testing.T) {
	_, s := newDB(t)
	f, err := s.Create("/dc", CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
	if _, err := f.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := f.Seek(0, io.SeekStart); !errors.Is(err, ErrClosed) {
		t.Fatalf("seek after close: %v", err)
	}
}

// helpers

type heapTID = anyTID

func newMemSwitch() *device.Switch {
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	return sw
}

// xorRand is a tiny deterministic generator for the property tests.
type xorRand struct{ state uint64 }

func newRand(seed int64) *xorRand {
	return &xorRand{state: uint64(seed)*2862933555777941757 + 3037000493}
}

func (r *xorRand) Intn(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(n))
}
