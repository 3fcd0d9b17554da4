package sysview

import (
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/txn"
	"repro/internal/value"
)

func newManager(t *testing.T) *txn.Manager {
	t.Helper()
	log, err := txn.OpenLog(device.NewMem(nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	return txn.NewManager(log)
}

// checkShape verifies every row has exactly one value per column. Rows
// are borrowed from Scan, so each is copied before it is kept.
func checkShape(t *testing.T, v *Rel) [][]value.V {
	t.Helper()
	var rows [][]value.V
	err := v.Scan(nil, func(row []value.V) error {
		rows = append(rows, append([]value.V(nil), row...))
		return nil
	})
	if err != nil {
		t.Fatalf("%s: Scan: %v", v.Name, err)
	}
	for i, r := range rows {
		if len(r) != len(v.Columns) {
			t.Fatalf("%s row %d has %d values, want %d", v.Name, i, len(r), len(v.Columns))
		}
	}
	return rows
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	mgr := newManager(t)
	r.Register(NewTransactions(mgr))
	r.Register(NewLocks(mgr.Locks()))
	if _, ok := r.Lookup("inv_locks"); !ok {
		t.Fatal("inv_locks not found")
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Fatal("bogus lookup succeeded")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "inv_locks" || names[1] != "inv_transactions" {
		t.Fatalf("Names = %v", names)
	}
	// Replace-on-duplicate: re-registering must not grow the set.
	r.Register(NewLocks(mgr.Locks()))
	if len(r.Names()) != 2 {
		t.Fatalf("duplicate Register grew the registry: %v", r.Names())
	}
	var nilReg *Registry
	if _, ok := nilReg.Lookup("inv_locks"); ok {
		t.Fatal("nil registry resolved a name")
	}
}

func TestStatOps(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("wire.op.begin_ns")
	for i := 0; i < 10; i++ {
		h.Observe(int64(i+1) * 1000)
	}
	reg.Histogram("txn.commit_force_ns").Observe(500) // not a wire op: excluded
	v := NewStatOps(reg)
	rows := checkShape(t, v)
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1 (only wire.op.* histograms)", len(rows))
	}
	if rows[0][0].S != "begin" {
		t.Fatalf("op = %q, want begin", rows[0][0].S)
	}
	if rows[0][1].I != 10 {
		t.Fatalf("count = %d, want 10", rows[0][1].I)
	}
	// p50 <= p95 <= p99, all positive for a populated histogram.
	p50, p95, p99 := rows[0][3].I, rows[0][4].I, rows[0][5].I
	if p50 <= 0 || p50 > p95 || p95 > p99 {
		t.Fatalf("quantiles not monotone: p50=%d p95=%d p99=%d", p50, p95, p99)
	}
}

func TestStatBuffer(t *testing.T) {
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	const rel device.OID = 100
	if err := sw.Place(rel, ""); err != nil {
		t.Fatal(err)
	}
	pool := buffer.NewPool(sw, 8)
	f, _, err := pool.NewPage(rel)
	if err != nil {
		t.Fatal(err)
	}
	pool.Release(f, true)
	for i := 0; i < 3; i++ {
		f, err := pool.Get(rel, 0)
		if err != nil {
			t.Fatal(err)
		}
		pool.Release(f, false)
	}
	rows := checkShape(t, NewStatBuffer(pool))
	if len(rows) != 17 {
		t.Fatalf("rows = %d, want 16 shards + all", len(rows))
	}
	all := rows[16]
	if all[0].S != "all" {
		t.Fatalf("last row label = %q, want all", all[0].S)
	}
	if all[2].I != 3 { // hits
		t.Fatalf("merged hits = %d, want 3", all[2].I)
	}
	if all[4].F <= 0 || all[4].F > 1 {
		t.Fatalf("hit_ratio = %v, want in (0,1]", all[4].F)
	}
}

func TestLocksAndTransactions(t *testing.T) {
	mgr := newManager(t)
	locks := NewLocks(mgr.Locks())
	txns := NewTransactions(mgr)

	if rows := checkShape(t, locks); len(rows) != 0 {
		t.Fatalf("idle lock table has %d rows", len(rows))
	}

	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mgr.AnnotateTx(tx.ID(), "inv1234")
	tag := txn.LockTag{Space: txn.SpaceRelation, Rel: 9, Key: 2}
	if err := tx.Lock(tag, txn.LockExclusive); err != nil {
		t.Fatal(err)
	}

	rows := checkShape(t, locks)
	if len(rows) != 1 {
		t.Fatalf("lock rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if r[0].I != int64(tx.ID()) || r[1].S != "relation" || r[2].I != 9 ||
		r[3].I != 2 || r[4].S != "exclusive" || !r[5].B || r[6].I != 0 {
		t.Fatalf("lock row = %v", r)
	}

	trows := checkShape(t, txns)
	if len(trows) != 1 {
		t.Fatalf("txn rows = %d, want 1", len(trows))
	}
	tr := trows[0]
	if tr[0].I != int64(tx.ID()) || tr[1].S != "in-progress" || tr[3].S != "inv1234" {
		t.Fatalf("txn row = %v", tr)
	}
	if tr[2].I < 0 || tr[2].I > int64(time.Minute/time.Millisecond) {
		t.Fatalf("age_ms = %d looks wrong", tr[2].I)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if rows := checkShape(t, txns); len(rows) != 0 {
		t.Fatalf("committed txn still listed: %v", rows)
	}
}

func TestTraces(t *testing.T) {
	ring := obs.NewTraceRing(4)
	ring.Record(obs.SpanData{Op: "read", WallNs: 100, BufHits: 2, Outcome: "ok"})
	ring.Record(obs.SpanData{Op: "write", WallNs: 300, Outcome: "ok"})
	rows := checkShape(t, NewTraces(ring))
	if len(rows) != 2 {
		t.Fatalf("trace rows = %d, want 2", len(rows))
	}
	if rows[0][0].S != "write" || rows[0][4].I != 300 {
		t.Fatalf("slowest-first violated: %v", rows[0])
	}
}

func TestColumnsCatalog(t *testing.T) {
	r := NewRegistry()
	mgr := newManager(t)
	r.Register(NewTransactions(mgr))
	r.Register(NewColumnsCatalog(r))
	v, _ := r.Lookup("inv_columns")
	rows := checkShape(t, v)
	// 4 own columns + 4 inv_transactions columns.
	if len(rows) != 8 {
		t.Fatalf("inv_columns rows = %d, want 8", len(rows))
	}
	seen := map[string]bool{}
	for _, row := range rows {
		seen[row[0].S+"."+row[1].S] = true
		if row[2].S == "" || row[3].S == "" {
			t.Fatalf("column row missing type/doc: %v", row)
		}
	}
	if !seen["inv_transactions.age_ms"] || !seen["inv_columns.relation"] {
		t.Fatalf("expected columns missing: %v", seen)
	}
}

func TestEveryCatalogHasDocsAndNames(t *testing.T) {
	mgr := newManager(t)
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	pool := buffer.NewPool(sw, 8)
	reg := NewRegistry()
	reg.Register(NewStatOps(obs.NewRegistry()))
	reg.Register(NewStatBuffer(pool))
	reg.Register(NewLocks(mgr.Locks()))
	reg.Register(NewTransactions(mgr))
	reg.Register(NewTraces(obs.NewTraceRing(4)))
	reg.Register(NewColumnsCatalog(reg))
	if got := len(reg.Names()); got != 6 {
		t.Fatalf("catalogs = %d, want 6", got)
	}
	for _, v := range reg.All() {
		if v.Doc == "" {
			t.Fatalf("%s has no doc", v.Name)
		}
		if len(v.Columns) == 0 {
			t.Fatalf("%s has no columns", v.Name)
		}
		names := map[string]bool{}
		for _, c := range v.Columns {
			if c.Name == "" || c.Doc == "" {
				t.Fatalf("%s has an undocumented column: %+v", v.Name, c)
			}
			if names[c.Name] {
				t.Fatalf("%s has duplicate column %s", v.Name, c.Name)
			}
			names[c.Name] = true
		}
		checkShape(t, v)
	}
}
