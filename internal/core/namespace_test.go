package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/txn"
)

// newNamespaceDB opens an in-memory database for the namespace tests.
func newNamespaceDB(t *testing.T) (*DB, *Session) {
	t.Helper()
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	db, err := Open(sw, Options{Buffers: 128})
	if err != nil {
		t.Fatal(err)
	}
	return db, db.NewSession("namespace-test")
}

// TestLockNameGranularity is the regression test for name-lock
// granularity: a create holding the (directory, name) lock in one
// directory must never make a create in a different directory wait,
// even for the identical entry name — the lock key mixes the parent
// OID with the name hash, not the name hash alone. The positive control
// at the end proves the assertion has teeth: a second create of the
// same binding does wait.
func TestLockNameGranularity(t *testing.T) {
	db, s := newNamespaceDB(t)
	defer db.Crash()
	if err := s.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Mkdir("/b"); err != nil {
		t.Fatal(err)
	}
	locks := db.Manager().Locks()

	// tx1 creates /a/x and holds the binding lock (uncommitted).
	tx1, err := db.Manager().Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.MkdirTx(tx1, "/a/x", "t"); err != nil {
		t.Fatal(err)
	}

	// The same name in a different directory must not queue behind tx1.
	// Run it on a goroutine so a granularity regression fails fast as a
	// timeout instead of hanging until tx1 commits.
	waits := locks.Waits()
	done := make(chan error, 1)
	go func() {
		tx2, err := db.Manager().Begin()
		if err != nil {
			done <- err
			return
		}
		if _, err := db.MkdirTx(tx2, "/b/x", "t"); err != nil {
			tx2.Abort()
			done <- err
			return
		}
		done <- tx2.Commit()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		tx1.Abort()
		t.Fatal("create of /b/x queued behind an uncommitted create of /a/x: name lock is not parent-qualified")
	}
	if w := locks.Waits() - waits; w != 0 {
		t.Fatalf("creates in unrelated directories recorded %d lock waits, want 0", w)
	}

	// Positive control: the SAME binding must wait (and then observe
	// tx1's committed row as ErrExist).
	ctl := make(chan error, 1)
	go func() {
		tx3, err := db.Manager().Begin()
		if err != nil {
			ctl <- err
			return
		}
		defer tx3.Abort()
		_, err = db.MkdirTx(tx3, "/a/x", "t")
		ctl <- err
	}()
	select {
	case err := <-ctl:
		tx1.Abort()
		t.Fatalf("create of /a/x did not wait for the uncommitted create of /a/x (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-ctl; !errors.Is(err, ErrExist) {
		t.Fatalf("second create of /a/x after wait: err=%v, want ErrExist", err)
	}
	if locks.Waits() == waits {
		t.Fatal("same-binding conflict recorded no lock wait")
	}
}

// TestDirectoryCrossingRenameAtomicity moves a file between two
// directories and checks the move end to end: an uncommitted move is
// invisible to other snapshots, an aborted move leaves the source
// untouched, and a committed move atomically switches the name —
// content byte-exact at the destination, source gone, and the old name
// still readable as of the create.
func TestDirectoryCrossingRenameAtomicity(t *testing.T) {
	db, s := newNamespaceDB(t)
	defer db.Crash()
	for _, d := range []string{"/src", "/dst"} {
		if err := s.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	content := []byte("crosses directories intact")
	if err := s.WriteFile("/src/f", content, CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	created := db.Manager().LastCommitTime()

	// Uncommitted move: another session sees the old world.
	tx, err := db.Manager().Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RenameTx(tx, "/src/f", "/dst/g"); err != nil {
		t.Fatal(err)
	}
	other := db.NewSession("observer")
	if _, err := other.ReadFile("/src/f"); err != nil {
		t.Fatalf("uncommitted move already hid the source: %v", err)
	}
	if _, err := other.ReadFile("/dst/g"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("uncommitted move already visible at destination: err=%v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadFile("/src/f"); err != nil {
		t.Fatalf("aborted move damaged the source: %v", err)
	}
	if _, err := s.ReadFile("/dst/g"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("aborted move left the destination behind: err=%v", err)
	}

	// Committed move: name switches atomically, content intact.
	if err := s.Rename("/src/f", "/dst/g"); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadFile("/dst/g")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("content after the move: %q", got)
	}
	if _, err := s.ReadFile("/src/f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("source still visible after committed move: err=%v", err)
	}
	if old, err := s.ReadFileAsOf("/src/f", created); err != nil || !bytes.Equal(old, content) {
		t.Fatalf("source as of its create: %q, %v", old, err)
	}
	for dir, want := range map[string]int{"/src": 0, "/dst": 1} {
		if ents, err := s.ReadDir(dir); err != nil || len(ents) != want {
			t.Fatalf("ReadDir(%s) = %v, %v; want %d entries", dir, ents, err, want)
		}
	}
}

// TestSeedFormatVolumeCompat pins the namespace's on-volume layout: a
// volume writes only the legacy relation OIDs (naming 3, fileatt 4,
// indexes 13–15) — nothing in the 20–99 range earlier versions gave
// their extra namespace shards — and reopens with the same namespace.
func TestSeedFormatVolumeCompat(t *testing.T) {
	rec := device.NewRecorder(device.NewMem(nil, 0))
	sw := device.NewSwitch()
	sw.Register(rec)
	db, err := Open(sw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession("seed")
	if err := s.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/dir/f", []byte("seed format"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, op := range rec.Trace() {
		if op.Rel >= 20 && op.Rel < 100 {
			t.Fatalf("volume touched relation OID %d (op %v), outside the legacy layout", op.Rel, op.Kind)
		}
	}

	for i := 0; i < 2; i++ {
		db, err := Open(sw, Options{})
		if err != nil {
			t.Fatalf("reopen %d: %v", i, err)
		}
		s := db.NewSession("seed")
		got, err := s.ReadFile("/dir/f")
		if err != nil || string(got) != "seed format" {
			t.Fatalf("reopen %d: read %q, %v", i, got, err)
		}
		ents, err := s.ReadDir("/dir")
		if err != nil || len(ents) != 1 {
			t.Fatalf("reopen %d: ReadDir %v, %v", i, ents, err)
		}
		if rep, err := db.Scrub(); err != nil || !rep.OK() {
			t.Fatalf("reopen %d: scrub %v, %v", i, rep.Problems, err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenRefusesShardedVolume: a volume whose log control page
// declares more than one namespace shard (bytes 16–19, which earlier
// versions wrote when bootstrapping a hash-partitioned namespace) keeps
// rows in relations this version never reads. Open must refuse it with
// ErrShardedVolume rather than serve a namespace with rows missing.
func TestOpenRefusesShardedVolume(t *testing.T) {
	mem := device.NewMem(nil, 0)
	sw := device.NewSwitch()
	sw.Register(mem)
	db, err := Open(sw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.NewSession("t").WriteFile("/f", []byte("x"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	setShards := func(n uint32) {
		t.Helper()
		ctrl := make([]byte, device.PageSize)
		if err := mem.ReadPage(txn.StatusLogRel, 0, ctrl); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(ctrl[16:], n)
		if err := mem.WritePage(txn.StatusLogRel, 0, ctrl); err != nil {
			t.Fatal(err)
		}
	}
	setShards(8)
	if _, err := Open(sw, Options{}); !errors.Is(err, ErrShardedVolume) {
		t.Fatalf("Open of an 8-shard volume: err=%v, want ErrShardedVolume", err)
	}

	// A count of one is the layout this version writes: it opens.
	setShards(1)
	db, err = Open(sw, Options{})
	if err != nil {
		t.Fatalf("Open of a one-shard volume: %v", err)
	}
	defer db.Crash()
	if got, err := db.NewSession("t").ReadFile("/f"); err != nil || string(got) != "x" {
		t.Fatalf("read after reopen: %q, %v", got, err)
	}
}
