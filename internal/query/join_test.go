package query

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/txn"
	"repro/internal/typefuncs"
	"repro/internal/value"
)

// retrieveByProbe is the reference the join is compared against: the
// same statement over the same scan, with every function call answered
// the way the executor did before the join — core.DB.CallFunc, one
// fileatt index probe per call, name/dir/path looking the row up again.
func retrieveByProbe(e *Engine, s *core.Session, src string) (*Result, error) {
	parsed, err := parse(src)
	if err != nil {
		return nil, err
	}
	st := parsed.(*retrieveStmt)
	snap := s.Snapshot()
	if st.asofSet {
		snap = e.db.Manager().AsOf(st.asof)
	}
	sc := newScope(e.files, "")
	sc.call = func(fn string) (value.V, error) {
		return skipUnsupported(e.db.CallFunc(snap, fn, device.OID(sc.row[sc.cols["file"]].I)))
	}
	return collect(st, sc, snap)
}

// joinStatements exercise every builtin, a typed user function (which
// filters directories and files of another type), an untyped one, two
// calls on one row, calls behind a short-circuit, sort and limit, and
// the errors a call can raise.
var joinStatements = []string{
	`retrieve (filename, size(file)) where size(file) > 10`,
	`retrieve (filename, owner(file), filetype(file), isdir(file), device(file))`,
	`retrieve (filename, name(file), dir(file), path(file)) sort by path(file)`,
	`retrieve (path(file)) where dir(file) = "/users/mao"`,
	`retrieve (filename, oid(file), ctime(file), mtime(file), atime(file), month_of(file))`,
	`retrieve (filename, keywords(file)) where "RISC" in keywords(file)`,
	`retrieve (filename, wordcount(file))`,
	`retrieve (filename, linecount(file)) sort by linecount(file) desc`,
	`retrieve (filename, size(file)) where not isdir(file) and size(file) >= 0 sort by filename desc limit 3`,
	`retrieve (filename) where filename = "notes" or size(file) > 30`,
	`retrieve (filename) where 1 = 2 and size(file) > 0`,
	`retrieve (filename, size(file)) limit 2`,
	`retrieve (filename) where nosuchfunc(file) = 1`,
	`retrieve (filename) where size(file) / 0 > 1`,
	`retrieve (filename, parentid, file)`,
}

const troffDoc = ".KW RISC pipelines\n.ft B\nthe snow line\n"

func newJoinEnv(t *testing.T) (*core.DB, *core.Session, *Engine) {
	t.Helper()
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	var mu sync.Mutex
	tick := int64(1 << 30)
	db, err := core.Open(sw, Options(&mu, &tick))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	s := db.NewSession("mao")
	if err := typefuncs.RegisterAll(s); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"/users/mao/papers", "/users/joe", "/tmp"} {
		if err := s.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	for path, opts := range map[string]core.CreateOpts{
		"/users/mao/notes":        {Type: typefuncs.TypeASCII},
		"/users/mao/papers/risc":  {Type: typefuncs.TypeTroff},
		"/users/mao/papers/draft": {Type: typefuncs.TypeTroff},
		"/users/joe/raw":          {},
		"/tmp/scratch":            {},
	} {
		if err := s.WriteFile(path, []byte(troffDoc+path), opts); err != nil {
			t.Fatal(err)
		}
	}
	return db, s, New(db)
}

// compareJoin runs every statement both ways, with suffix appended, and
// requires the same columns, the same rows in the same order, and the
// same error.
func compareJoin(t *testing.T, e *Engine, s *core.Session, stage, suffix string) {
	t.Helper()
	for _, src := range joinStatements {
		src += suffix
		got, gotErr := e.Run(s, src)
		want, wantErr := retrieveByProbe(e, s, src)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: %s\n  join error:  %v\n  probe error: %v", stage, src, gotErr, wantErr)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s\n  join:  %+v\n  probe: %+v", stage, src, got, want)
		}
	}
}

// TestJoinMatchesPerRowProbe: the scan join must be indistinguishable
// from the per-row CallFunc executor it replaced. The engine has no
// link operation, so one OID never has two names and that case does not
// arise.
func TestJoinMatchesPerRowProbe(t *testing.T) {
	// The subtest keeps the name it had when a volume could also be
	// opened with a partitioned namespace; there is one layout now.
	t.Run("shards=1", func(t *testing.T) {
		db, s, e := newJoinEnv(t)
		compareJoin(t, e, s, "committed", "")
		if n := len(mustRun(t, e, s, joinStatements[0]).Rows); n != 5 {
			t.Fatalf("%s returned %d rows, want the 5 files", joinStatements[0], n)
		}
		if got := names(mustRun(t, e, s, `retrieve (filename) where "RISC" in keywords(file)`)); len(got) != 2 {
			t.Fatalf("keywords matched %v, want the two troff documents (directories and other types skipped)", got)
		}

		// The session's own uncommitted create, rename, unlink and
		// overwrite are part of what it reads; another session's
		// retrieve sees none of them.
		before := db.Manager().LastCommitTime()
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteFile("/tmp/fresh", []byte("a fresh file, longer than the rest of them by some way"), core.CreateOpts{Type: typefuncs.TypeTroff}); err != nil {
			t.Fatal(err)
		}
		if err := s.Rename("/users/mao/papers/draft", "/users/joe/final"); err != nil {
			t.Fatal(err)
		}
		if err := s.Unlink("/users/joe/raw"); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteFile("/users/mao/notes", []byte("short"), core.CreateOpts{}); err != nil {
			t.Fatal(err)
		}
		compareJoin(t, e, s, "inside the transaction", "")
		inTx := names(mustRun(t, e, s, `retrieve (size(file), filename) where not isdir(file) sort by filename`))
		if want := []string{"final", "fresh", "notes", "risc", "scratch"}; !reflect.DeepEqual(inTx, want) {
			t.Fatalf("the transaction sees files %v, want %v", inTx, want)
		}
		if got := mustRun(t, e, s, `retrieve (size(file)) where filename = "notes"`).Rows; len(got) != 1 || got[0][0].I != 5 {
			t.Fatalf("the transaction reads its own overwrite as %v, want size 5", got)
		}
		other := db.NewSession("other")
		compareJoin(t, e, other, "beside the transaction", "")
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		compareJoin(t, e, s, "after commit", "")

		// Time travel to before the transaction, with the versions it
		// superseded still in the heaps and then vacuumed out of them.
		// notes was overwritten, so its old fileatt row is one of the
		// vacuumed: the fileatt scan no longer finds it and the join
		// must fall back to the probe, which reads the archive.
		asof := fmt.Sprintf(" asof %d", before)
		oldSize := func() int64 {
			t.Helper()
			rows := mustRun(t, e, s, `retrieve (size(file)) where filename = "notes"`+asof).Rows
			if len(rows) != 1 {
				t.Fatalf("asof: notes has %d rows, want 1", len(rows))
			}
			return rows[0][0].I
		}
		compareJoin(t, e, s, "asof before vacuum", asof)
		want := int64(len(troffDoc + "/users/mao/notes"))
		if got := oldSize(); got != want {
			t.Fatalf("asof before vacuum: notes is %d bytes, want %d", got, want)
		}
		st, err := db.Vacuum()
		if err != nil {
			t.Fatal(err)
		}
		if st.Archived == 0 {
			t.Fatal("vacuum archived nothing: the fallback is not exercised")
		}
		compareJoin(t, e, s, "asof after vacuum", asof)
		if got := oldSize(); got != want {
			t.Fatalf("asof after vacuum: notes is %d bytes, want %d (its old attributes are in the archive)", got, want)
		}
		compareJoin(t, e, s, "current after vacuum", "")
	})
}

// TestLimitStopsTheScan: an unsorted retrieve with a limit stops
// reading once the limit is full; a sorted one has to see every row.
func TestLimitStopsTheScan(t *testing.T) {
	_, s, e := newJoinEnv(t)
	offered := 0
	counted := *e.files
	counted.Scan = func(snap *txn.Snapshot, emit func([]value.V) error) error {
		return e.files.Scan(snap, func(row []value.V) error {
			offered++
			return emit(row)
		})
	}
	ce := &Engine{db: e.db, files: &counted}
	total := len(mustRun(t, ce, s, `retrieve (filename)`).Rows)
	if total < 10 || offered != total {
		t.Fatalf("unlimited: %d rows from %d offered", total, offered)
	}
	for _, tc := range []struct {
		src           string
		rows, offered int
	}{
		{`retrieve (filename) limit 3`, 3, 3},
		{`retrieve (filename, size(file)) where not isdir(file) limit 2`, 2, -1},
		{`retrieve (filename) sort by filename limit 3`, 3, total},
		{`retrieve (filename) limit 1000`, total, total},
	} {
		offered = 0
		if n := len(mustRun(t, ce, s, tc.src).Rows); n != tc.rows {
			t.Errorf("%s: %d rows, want %d", tc.src, n, tc.rows)
		}
		if tc.offered >= 0 && offered != tc.offered {
			t.Errorf("%s: scan offered %d rows, want %d", tc.src, offered, tc.offered)
		}
		if offered > total || (tc.offered < 0 && offered == total) {
			t.Errorf("%s: scan offered %d of %d rows, want it to stop early", tc.src, offered, total)
		}
	}
	// A catalog's scan stops the same way and the sentinel stays inside.
	if res, err := ce.Run(s, `retrieve (c.relation) from c in inv_columns limit 2`); err != nil || len(res.Rows) != 2 {
		t.Fatalf("limit over a catalog: %v, %v", res, err)
	}
}
