package query

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sysview"
	"repro/internal/txn"
	"repro/internal/typefuncs"
	"repro/internal/value"
)

// newFuzzEnv opens a small in-memory database with typed files, the
// Table 2 functions and one recorded metrics-history tick, so every
// range kind a retrieve can name has rows.
func newFuzzEnv(tb testing.TB) (*core.DB, *core.Session, *Engine) {
	tb.Helper()
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	var mu sync.Mutex
	tick := int64(1 << 30)
	opts := Options(&mu, &tick)
	opts.MetricsHistory = time.Hour // manual ticks only
	db, err := core.Open(sw, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = db.Close() })
	s := db.NewSession("mao")
	if err := typefuncs.RegisterAll(s); err != nil {
		tb.Fatal(err)
	}
	if err := s.MkdirAll("/users/mao"); err != nil {
		tb.Fatal(err)
	}
	for path, typ := range map[string]string{"/users/mao/notes": typefuncs.TypeASCII, "/users/mao/raw": ""} {
		if err := s.WriteFile(path, []byte("RISC and the snow line\n"), core.CreateOpts{Type: typ}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := db.RecordMetricsTick(); err != nil {
		tb.Fatal(err)
	}
	return db, s, New(db)
}

// FuzzRetrieve: arbitrary statement text that parses as a retrieve is
// executed, and must never panic. It runs twice: first on a hollow
// engine whose every relation scans to zero rows and counts the scan,
// then on a real one. With no rows nothing is evaluated, so an error
// from the hollow run can only come from the checks that precede the
// scan — and then the scan must not have happened, and the real run must
// be refused too, whatever rows it holds. (Define statements are parsed
// only: they would pile catalog rows up from one input to the next.)
func FuzzRetrieve(f *testing.F) {
	seeds := []string{
		// FuzzParse's corpus.
		`retrieve (filename) where owner(file) = "mao"`,
		`retrieve (snow(file), filename) where snow(file)/size(file) > 0.5`,
		`define type "x" doc "y"`,
		`retrieve (filename) sort by size(file) desc limit 3 asof 12345`,
		`retrieve ((((filename))))`,
		`retrieve (1 + 2 * -3 / 4 - 5)`,
		"retrieve (filename) where \"unterminated",
		`retrieve () where and or not`,
		`retrieve (l.txn, l.mode) from l in inv_locks where l.granted = 1`,
		`retrieve (c.type, c.doc) from c in inv_columns sort by c.relation limit 5`,
		`retrieve (shard) from b in inv_stat_buffer where b.hit_ratio > 0.9`,
		`retrieve (x.a) from x in`,
		`retrieve (x.a) from in x`,
		`retrieve (x.) from x in y`,
		`retrieve (.y) from x in y`,
		`retrieve (a.b.c) from x in y asof 1`,
		"\x00\xff\xfe",
		// History, asof, and the mistakes only a static check catches.
		`retrieve (s.seq, s.value) from s in inv_history_samples where s.kind = "gauge" sort by s.seq desc`,
		`retrieve (h.seq, h.dropped) from h in inv_history asof 1073742824`,
		`retrieve (h.seq) from h in inv_history asof 1`,
		`retrieve (m.name, m.ticks) from m in inv_history_meta asof 5`,
		`retrieve (filename, size(file)) where "RISC" in keywords(file) asof 1073742824`,
		`retrieve (nosuch) where 1 = 2`,
		`retrieve (f.filename) where 1 = 2`,
		`retrieve (filename) where 1 = 2 and size(file, file) > 0`,
		`retrieve (filename / 2, -filename) where not parentid`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	_, realSess, realEng := newFuzzEnv(f)
	hollowDB, hollowSess, hollowEng := newFuzzEnv(f)
	scans := 0
	hollow := func(rel *sysview.Rel) *sysview.Rel {
		h := *rel
		h.Scan = func(*txn.Snapshot, func([]value.V) error) error {
			scans++
			return nil
		}
		return &h
	}
	for _, rel := range hollowDB.SysViews().All() {
		hollowDB.SysViews().Register(hollow(rel))
	}
	hollowEng.files = hollow(hollowEng.files)

	f.Fuzz(func(t *testing.T, src string) {
		st, err := parse(src)
		if err != nil {
			return
		}
		if _, ok := st.(*retrieveStmt); !ok {
			return
		}
		before := scans
		_, rejected := hollowEng.Run(hollowSess, src)
		if rejected != nil && scans != before {
			t.Fatalf("%q was rejected (%v) after its relation was scanned", src, rejected)
		}
		if rejected == nil && scans != before+1 {
			t.Fatalf("%q was accepted and scanned %d times, want once", src, scans-before)
		}
		_, err = realEng.Run(realSess, src)
		if rejected != nil && err == nil {
			t.Fatalf("%q is refused over empty relations (%v) but runs over full ones: the check depends on rows", src, rejected)
		}
	})
}
