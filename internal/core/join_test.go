package core

import (
	"errors"
	"testing"

	"repro/internal/device"
)

// holds reports whether the join's build side holds a row for oid.
func (j *FileJoin) holds(oid device.OID) bool {
	for _, r := range j.rows {
		if r.file == oid {
			return true
		}
	}
	return false
}

// TestFileJoinFallsBackToTheProbe: a file the fileatt scan does not see
// is answered by getAttr — from the archive when the snapshot is
// historical and the vacuum has moved the version it wants, and with
// ErrNotExist when there is no such file at all.
func TestFileJoinFallsBackToTheProbe(t *testing.T) {
	db, s := newDB(t)
	if err := s.WriteFile("/f", []byte("twelve bytes"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	then := db.mgr.LastCommitTime()
	if err := s.WriteFile("/f", []byte("five!"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	oid := mustOID(t, db, "/f")

	size := func(j *FileJoin) int64 {
		t.Helper()
		v, err := j.Call("size", "f", RootDirOID, oid)
		if err != nil {
			t.Fatal(err)
		}
		return v.I
	}
	past := db.NewFileJoin(db.mgr.AsOf(then))
	if got := size(past); got != 12 || !past.holds(oid) {
		t.Fatalf("before vacuum: size %d (want 12), in the build side: %v (want true)", got, past.holds(oid))
	}
	past.Release()

	if st, err := db.Vacuum(); err != nil || st.Archived == 0 {
		t.Fatalf("vacuum: %+v, %v", st, err)
	}
	past = db.NewFileJoin(db.mgr.AsOf(then))
	defer past.Release()
	if past.built || len(past.rows) != 0 {
		t.Fatalf("a released join came back with %d rows, built=%v", len(past.rows), past.built)
	}
	if got := size(past); got != 12 || past.holds(oid) {
		t.Fatalf("after vacuum: size %d (want 12, from the archive), in the build side: %v (want false)", got, past.holds(oid))
	}
	if !past.holds(RootDirOID) {
		t.Fatal("the build side misses the root directory, whose row was never superseded")
	}

	now := db.NewFileJoin(db.mgr.CurrentSnapshot())
	defer now.Release()
	if got := size(now); got != 5 || !now.holds(oid) {
		t.Fatalf("current: size %d (want 5), in the build side: %v (want true)", got, now.holds(oid))
	}
	if _, err := now.Call("size", "ghost", RootDirOID, oid+1000); !errors.Is(err, ErrNotExist) {
		t.Fatalf("a file with no attribute row: %v, want ErrNotExist", err)
	}
	// The failed row must not leave its predecessor's attributes behind.
	if got := size(now); got != 5 {
		t.Fatalf("after a miss: size %d, want 5", got)
	}
}

// TestFileJoinServesTheRowItStandsOn: name, dir and path answer from the
// naming row the caller passes, as NamingEntry would have found it.
func TestFileJoinServesTheRowItStandsOn(t *testing.T) {
	db, s := newDB(t)
	if err := s.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/a/b/c", []byte("x"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/top", []byte("x"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	snap := db.mgr.CurrentSnapshot()
	j := db.NewFileJoin(snap)
	defer j.Release()
	err := db.ForEachFile(snap, func(name string, parent, oid device.OID) error {
		for _, fn := range []string{"name", "dir", "path"} {
			got, gerr := j.Call(fn, name, parent, oid)
			want, werr := db.CallFunc(snap, fn, oid)
			if gerr != nil || werr != nil || got.S != want.S {
				t.Errorf("%s(%q): join %q (%v), probe %q (%v)", fn, name, got.S, gerr, want.S, werr)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p, err := j.Call("path", "c", mustOID(t, db, "/a/b"), mustOID(t, db, "/a/b/c")); err != nil || p.S != "/a/b/c" {
		t.Fatalf("path = %q, %v", p.S, err)
	}
}
