package query

import (
	"fmt"
	"strings"
	"testing"
)

// farFuture is an asof timestamp past every commit the fixtures make.
const farFuture = int64(1) << 40

// TestRetrieveConformsAcrossRanges runs the same statement shapes over
// the three kinds of range — the implicit file range, a live catalog, a
// stored history relation — and expects the same outcome from each
// wherever the kinds do not differ by design (type functions exist only
// over files; asof only over versioned rows). Name resolution is static
// everywhere: a mistake is an error whatever rows exist, including
// behind a where clause no row passes.
func TestRetrieveConformsAcrossRanges(t *testing.T) {
	db, s, e := newHistEnv(t)
	if err := db.RecordMetricsTick(); err != nil {
		t.Fatal(err)
	}
	ranges := []struct{ kind, from, col string }{
		{"files", "", "filename"},
		{"catalog", " from v in inv_stat_buffer", "v.shard"},
		{"history", " from v in inv_history", "v.seq"},
	}
	const (
		ok       = "" // succeeds with at least one row
		noAttr   = "unknown attribute"
		noColumn = "no column"
		noVar    = "unknown range variable"
		noFuncs  = "not defined over virtual relation"
	)
	shapes := []struct {
		name string
		q    string    // %[1]s = from clause, %[2]s = a valid column reference
		want [3]string // error substring per range kind, in ranges order
	}{
		{"valid column", "retrieve (%[2]s)%[1]s", [3]string{ok, ok, ok}},
		{"sort by and limit", "retrieve (%[2]s)%[1]s sort by %[2]s desc limit 1", [3]string{ok, ok, ok}},
		{"unknown column", "retrieve (nosuch)%[1]s", [3]string{noAttr, noColumn, noColumn}},
		{"unknown column no row reaches", "retrieve (nosuch)%[1]s where 1 = 2", [3]string{noAttr, noColumn, noColumn}},
		{"unknown column in sort key", "retrieve (%[2]s)%[1]s where 1 = 2 sort by nosuch", [3]string{noAttr, noColumn, noColumn}},
		{"misspelt range variable", "retrieve (zz.filename)%[1]s", [3]string{noVar, noVar, noVar}},
		{"misspelt range variable no row reaches", "retrieve (zz.filename)%[1]s where 1 = 2", [3]string{noVar, noVar, noVar}},
		{"function call", "retrieve (size(file))%[1]s", [3]string{ok, noFuncs, noFuncs}},
		{"bad call arity behind a short-circuit", "retrieve (%[2]s)%[1]s where 1 = 2 and size(file, file) > 0",
			[3]string{"exactly one argument", noFuncs, noFuncs}},
		{"call on a non-file behind a short-circuit", "retrieve (%[2]s)%[1]s where 1 = 1 or size(1) > 0",
			[3]string{"must be applied to the range variable file", noFuncs, noFuncs}},
		{"asof", fmt.Sprintf("retrieve (%%[2]s)%%[1]s asof %d", farFuture), [3]string{ok, "live-only", ok}},
	}
	for i, r := range ranges {
		for _, sh := range shapes {
			q, want := fmt.Sprintf(sh.q, r.from, r.col), sh.want[i]
			t.Run(r.kind+"/"+sh.name, func(t *testing.T) {
				res, err := e.Run(s, q)
				switch {
				case want == ok && err != nil:
					t.Fatalf("%s: %v", q, err)
				case want == ok && len(res.Rows) == 0:
					t.Fatalf("%s: no rows", q)
				case want != ok && err == nil:
					t.Fatalf("%s: succeeded with %d rows, want an error containing %q", q, len(res.Rows), want)
				case want != ok && !strings.Contains(err.Error(), want):
					t.Fatalf("%s: error %q, want it to contain %q", q, err, want)
				}
			})
		}
	}
}

// TestColumnsCatalogIsComplete: the unknown-relation error sends the
// user to inv_columns, so inv_columns must name every relation a from
// clause accepts — the history heaps included — and everything it names
// must answer a query, with asof accepted exactly where rows are
// versioned.
func TestColumnsCatalogIsComplete(t *testing.T) {
	db, s, e := newHistEnv(t)
	if err := db.RecordMetricsTick(); err != nil {
		t.Fatal(err)
	}
	firstCol := map[string]string{}
	var rels []string
	for _, row := range mustRun(t, e, s, `retrieve (c.relation, c.column) from c in inv_columns`).Rows {
		if _, seen := firstCol[row[0].S]; !seen {
			firstCol[row[0].S] = row[1].S
			rels = append(rels, row[0].S)
		}
	}
	for _, name := range append(db.SysViews().Names(), "inv_history", "inv_history_samples") {
		if firstCol[name] == "" {
			t.Errorf("inv_columns has no rows for %s", name)
		}
	}
	for _, name := range rels {
		q := fmt.Sprintf("retrieve (v.%s) from v in %s limit 1", firstCol[name], name)
		if _, err := e.Run(s, q); err != nil {
			t.Errorf("%s: %v", q, err)
		}
		rel, ok := db.SysViews().Lookup(name)
		if !ok {
			t.Errorf("inv_columns names %s, which the registry does not hold", name)
			continue
		}
		q += fmt.Sprintf(" asof %d", farFuture)
		_, err := e.Run(s, q)
		if rel.Versioned && err != nil {
			t.Errorf("%s over a versioned relation: %v", q, err)
		}
		if !rel.Versioned && (err == nil || !strings.Contains(err.Error(), "live-only")) {
			t.Errorf("%s over a live catalog: err = %v, want the live-only error", q, err)
		}
	}
}
