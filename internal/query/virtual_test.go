package query

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/txn"
	"repro/internal/value"
)

// colIdx maps a result's column names to positions.
func colIdx(res *Result) map[string]int {
	m := make(map[string]int, len(res.Columns))
	for i, c := range res.Columns {
		m[c] = i
	}
	return m
}

func TestRetrieveFromVirtualRelation(t *testing.T) {
	_, s, e := newEnv(t)
	// inv_stat_buffer always has 17 rows (16 shards + "all").
	res := mustRun(t, e, s, `retrieve (b.shard, b.hits, b.misses) from b in inv_stat_buffer`)
	if len(res.Rows) != 17 {
		t.Fatalf("inv_stat_buffer rows = %d, want 17", len(res.Rows))
	}
	if got := res.Columns; got[0] != "shard" || got[1] != "hits" || got[2] != "misses" {
		t.Fatalf("columns = %v", got)
	}
	// Bare column names resolve in the virtual scope too.
	res = mustRun(t, e, s, `retrieve (shard, frames) from b in inv_stat_buffer where shard = "all"`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "all" {
		t.Fatalf("merged row = %v", res.Rows)
	}
	// where / sort / limit compose over the virtual range.
	res = mustRun(t, e, s, `retrieve (b.shard) from b in inv_stat_buffer
		where b.shard != "all" sort by b.shard desc limit 3`)
	if len(res.Rows) != 3 || res.Rows[0][0].S != "15" {
		t.Fatalf("sorted shards = %v", res.Rows)
	}
}

func TestRetrieveLocksAndTransactions(t *testing.T) {
	db, s, e := newEnv(t)
	mgr := db.Manager()
	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tx.Abort() }()
	mgr.AnnotateTx(tx.ID(), "inv42")
	tag := txn.LockTag{Space: txn.SpaceRelation, Rel: 42}
	if err := mgr.Locks().Acquire(tx.ID(), tag, txn.LockExclusive); err != nil {
		t.Fatal(err)
	}

	res := mustRun(t, e, s, `retrieve (l.txn, l.mode, l.granted) from l in inv_locks where l.rel = 42`)
	if len(res.Rows) != 1 {
		t.Fatalf("inv_locks rows = %v", res.Rows)
	}
	row := res.Rows[0]
	if row[0].I != int64(tx.ID()) || row[1].S != "exclusive" || !row[2].B {
		t.Fatalf("lock row = %v", row)
	}

	res = mustRun(t, e, s, `retrieve (t.xid, t.state, t.relation, t.age_ms) from t in inv_transactions`)
	ci := colIdx(res)
	found := false
	for _, r := range res.Rows {
		if r[ci["xid"]].I == int64(tx.ID()) {
			found = true
			if r[ci["state"]].S != "in-progress" || r[ci["relation"]].S != "inv42" {
				t.Fatalf("txn row = %v", r)
			}
			if r[ci["age_ms"]].I < 0 {
				t.Fatalf("negative age: %v", r)
			}
		}
	}
	if !found {
		t.Fatalf("open transaction %d missing from inv_transactions: %v", tx.ID(), res.Rows)
	}
}

func TestRetrieveColumnsKeywordFields(t *testing.T) {
	// inv_columns has columns named "type" and "doc" — both lexer
	// keywords; the field position after '.' must accept them.
	_, s, e := newEnv(t)
	res := mustRun(t, e, s, `retrieve (c.relation, c.column, c.type, c.doc) from c in inv_columns
		where c.relation = "inv_locks" and c.column = "mode"`)
	if len(res.Rows) != 1 {
		t.Fatalf("inv_columns rows = %v", res.Rows)
	}
	row := res.Rows[0]
	if row[2].S != "string" || row[3].S == "" {
		t.Fatalf("mode column metadata = %v", row)
	}
}

func TestRetrieveRelationsAndVacuum(t *testing.T) {
	db, s, e := newEnv(t)
	if err := s.WriteFile("/f", []byte("hello"), core.CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e, s, `retrieve (r.name, r.pages, r.live) from r in inv_relations where r.name = "naming"`)
	if len(res.Rows) != 1 {
		t.Fatalf("naming row = %v", res.Rows)
	}
	if res.Rows[0][2].I < 1 {
		t.Fatalf("naming live tuples = %v", res.Rows[0])
	}
	// No vacuum has run: inv_vacuum is empty but well-formed.
	res = mustRun(t, e, s, `retrieve (v.pages) from v in inv_vacuum`)
	if len(res.Rows) != 0 {
		t.Fatalf("vacuum rows before any run = %v", res.Rows)
	}
	if _, err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	res = mustRun(t, e, s, `retrieve (v.pages, v.duration_ns) from v in inv_vacuum`)
	if len(res.Rows) != 1 || res.Rows[0][0].I < 1 {
		t.Fatalf("vacuum rows after run = %v", res.Rows)
	}
}

func TestVirtualRelationErrors(t *testing.T) {
	_, s, e := newEnv(t)
	cases := []struct {
		q    string
		want string
	}{
		{`retrieve (x.a) from x in no_such_rel`, "unknown virtual relation"},
		{`retrieve (l.bogus) from l in inv_locks`, "no column"},
		{`retrieve (m.txn) from l in inv_locks`, "unknown range variable"},
		{`retrieve (size(file)) from l in inv_locks`, "not defined over virtual relation"},
		{`retrieve (l.txn) from l in inv_locks asof 12345`, "live-only"},
		{`retrieve (l.txn)`, "unknown range variable"},
		{`retrieve (l.txn) from l`, "expected"},
		{`retrieve (l.txn) from l in`, "expected"},
	}
	for _, c := range cases {
		_, err := e.Run(s, c.q)
		if err == nil {
			t.Errorf("query %q did not fail", c.q)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("query %q error = %v, want substring %q", c.q, err, c.want)
		}
	}
}

func TestStatOpsMatchesRegistry(t *testing.T) {
	// inv_stat_ops is derived from the same histograms the obs registry
	// snapshots; in a quiesced engine the counts must agree exactly.
	db, s, e := newEnv(t)
	// Generate some op traffic through the registry the way the wire
	// layer does.
	h := db.Obs().Histogram("wire.op.read_ns")
	for i := 0; i < 5; i++ {
		h.Observe(int64(1000 * (i + 1)))
	}
	res := mustRun(t, e, s, `retrieve (o.op, o.count) from o in inv_stat_ops where o.op = "read"`)
	if len(res.Rows) != 1 {
		t.Fatalf("inv_stat_ops rows = %v", res.Rows)
	}
	if res.Rows[0][1].I != 5 {
		t.Fatalf("read count = %v, want 5", res.Rows[0])
	}
	if res.Rows[0][0].Kind != value.KindString {
		t.Fatalf("op column kind = %v", res.Rows[0][0].Kind)
	}
}

// TestRelationsCountNamespaceRows drives metadata traffic and checks
// that inv_relations reports it for the namespace heaps: every created
// entry is a live naming row, and the rename leaves one dead naming row
// behind (no-overwrite: the old binding is stamped, not removed).
func TestRelationsCountNamespaceRows(t *testing.T) {
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	db, err := core.Open(sw, core.Options{Buffers: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Crash()
	s := db.NewSession("mao")
	e := New(db)

	const dirs = 4
	for d := 0; d < dirs; d++ {
		if err := s.Mkdir(fmt.Sprintf("/vd%d", d)); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			if err := s.WriteFile(fmt.Sprintf("/vd%d/f%d", d, k), []byte("x"), core.CreateOpts{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Rename("/vd0/f0", "/vd1/moved"); err != nil {
		t.Fatal(err)
	}

	res := mustRun(t, e, s, `retrieve (r.name, r.live, r.dead) from r in inv_relations
		where r.name = "naming" or r.name = "fileatt" sort by name`)
	if len(res.Rows) != 2 {
		t.Fatalf("inv_relations namespace rows = %v, want fileatt and naming", res.Rows)
	}
	fileatt, naming := res.Rows[0], res.Rows[1]
	// The root, 4 dirs and 12 files.
	if naming[1].I != 17 || naming[2].I != 1 {
		t.Fatalf("naming live/dead = %d/%d, want 17/1 (the rename's old binding is dead)", naming[1].I, naming[2].I)
	}
	if fileatt[1].I != 17 {
		t.Fatalf("fileatt live = %d, want 17", fileatt[1].I)
	}
}
