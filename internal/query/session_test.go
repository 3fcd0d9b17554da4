package query

import (
	"testing"

	"repro/internal/core"
)

// TestDefineFunctionRollsBackWithSession: define function is part of the
// session's transaction exactly as define type is, so an abort takes
// both back. (It used to open and commit a transaction of its own,
// leaving f declared over a type that was rolled back.)
func TestDefineFunctionRollsBackWithSession(t *testing.T) {
	db, s, e := newEnv(t)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e, s, `define type "t"`)
	mustRun(t, e, s, `define function "f" for "t"`)
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Catalog().Type("t"); ok {
		t.Error("type t survived the abort")
	}
	if fi, ok := db.Catalog().Function("f"); ok {
		t.Errorf("function f survived the abort: %+v", fi)
	}

	// The same statements under a commit stick, and autocommit still works.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e, s, `define type "t"`)
	mustRun(t, e, s, `define function "f" for "t"`)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e, s, `define function "g" for "t" doc "autocommit"`)
	for _, name := range []string{"f", "g"} {
		fi, ok := db.Catalog().Function(name)
		if !ok || fi.TypeName != "t" || fi.Lang != "go" {
			t.Errorf("function %s after commit = %+v, %v", name, fi, ok)
		}
	}
}

// TestRetrieveReadsSessionSnapshot: inside a transaction a retrieve sees
// what Stat sees — the transaction's own writes, and nothing another
// session committed after it began.
func TestRetrieveReadsSessionSnapshot(t *testing.T) {
	db, s, e := newEnv(t)
	count := func(name string) int {
		t.Helper()
		return len(mustRun(t, e, s, `retrieve (filename) where filename = "`+name+`"`).Rows)
	}
	// One directory each: a create locks its parent's mtime, so two open
	// transactions cannot both create in "/".
	for _, dir := range []string{"/a", "/b"} {
		if err := s.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/a/mine", []byte("x"), core.CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat("/a/mine"); err != nil {
		t.Fatalf("Stat of the transaction's own file: %v", err)
	}
	if n := count("mine"); n != 1 {
		t.Errorf("retrieve inside the writing transaction found %d rows for its own file, want 1", n)
	}

	other := db.NewSession("other")
	if err := other.WriteFile("/b/theirs", []byte("y"), core.CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat("/b/theirs"); err == nil {
		t.Fatal("Stat sees a file committed after the transaction began")
	}
	if n := count("theirs"); n != 0 {
		t.Errorf("retrieve in an open transaction found %d rows committed after it began, want 0", n)
	}
	if n := len(mustRun(t, e, other, `retrieve (filename) where filename = "mine"`).Rows); n != 0 {
		t.Errorf("another session's retrieve found %d uncommitted rows, want 0", n)
	}

	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if count("mine") != 1 || count("theirs") != 1 {
		t.Errorf("after commit: mine=%d theirs=%d, want 1 and 1", count("mine"), count("theirs"))
	}
}
