package catalog

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/device"
	"repro/internal/heap"
	"repro/internal/txn"
)

type fixture struct {
	sw   *device.Switch
	pool *buffer.Pool
	mgr  *txn.Manager
	cat  *Catalog
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	mem, err := sw.Manager("mem")
	if err != nil {
		t.Fatal(err)
	}
	log, err := txn.OpenLog(mem)
	if err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager(log)
	var mu sync.Mutex
	tick := int64(100)
	mgr.TimeSource = func() int64 { mu.Lock(); defer mu.Unlock(); tick++; return tick }
	pool := buffer.NewPool(sw, 32)
	for _, oid := range []device.OID{RelationsRel, TypesRel, FunctionsRel} {
		if err := sw.Place(oid, ""); err != nil {
			t.Fatal(err)
		}
	}
	cat, err := Open(
		heap.Open(RelationsRel, pool, mgr),
		heap.Open(TypesRel, pool, mgr),
		heap.Open(FunctionsRel, pool, mgr),
		mgr, sw)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{sw: sw, pool: pool, mgr: mgr, cat: cat}
}

func (fx *fixture) reopen(t *testing.T) *Catalog {
	t.Helper()
	cat, err := Open(
		heap.Open(RelationsRel, fx.pool, fx.mgr),
		heap.Open(TypesRel, fx.pool, fx.mgr),
		heap.Open(FunctionsRel, fx.pool, fx.mgr),
		fx.mgr, fx.sw)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestCreateRelationPersists(t *testing.T) {
	fx := newFixture(t)
	tx, _ := fx.mgr.Begin()
	ri, err := fx.cat.CreateRelation(tx, "mytable", "mem", KindHeap)
	if err != nil {
		t.Fatal(err)
	}
	if ri.OID < FirstUserOID {
		t.Fatalf("oid %d below FirstUserOID", ri.OID)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Visible now and after a catalog reload.
	if got, ok := fx.cat.Relation("mytable"); !ok || got.OID != ri.OID {
		t.Fatalf("lookup: %+v %v", got, ok)
	}
	cat2 := fx.reopen(t)
	got, ok := cat2.Relation("mytable")
	if !ok || got.OID != ri.OID || got.Class != "mem" || got.Kind != KindHeap {
		t.Fatalf("after reload: %+v %v", got, ok)
	}
	// The relation was placed on its device.
	if class, err := fx.sw.HomeClass(ri.OID); err != nil || class != "mem" {
		t.Fatalf("placement: %q %v", class, err)
	}
	// OID allocation resumes above it.
	if next := cat2.AllocOID(); next <= ri.OID {
		t.Fatalf("AllocOID after reload = %d", next)
	}
}

func TestCreateRelationAbortRollsBack(t *testing.T) {
	fx := newFixture(t)
	tx, _ := fx.mgr.Begin()
	if _, err := fx.cat.CreateRelation(tx, "doomed", "mem", KindHeap); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, ok := fx.cat.Relation("doomed"); ok {
		t.Fatal("aborted relation still visible in memory")
	}
	if _, ok := fx.reopen(t).Relation("doomed"); ok {
		t.Fatal("aborted relation visible after reload")
	}
	// The name is reusable.
	tx2, _ := fx.mgr.Begin()
	if _, err := fx.cat.CreateRelation(tx2, "doomed", "mem", KindHeap); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateNamesAndOIDs(t *testing.T) {
	fx := newFixture(t)
	tx, _ := fx.mgr.Begin()
	ri, err := fx.cat.CreateRelation(tx, "dup", "mem", KindHeap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.cat.CreateRelation(tx, "dup", "mem", KindHeap); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate name: %v", err)
	}
	if _, err := fx.cat.CreateRelationAt(tx, ri.OID, "other", "mem", KindHeap); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate oid: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateRelationAtRaisesAllocator(t *testing.T) {
	fx := newFixture(t)
	tx, _ := fx.mgr.Begin()
	if _, err := fx.cat.CreateRelationAt(tx, 5000, "pinned", "mem", KindHeap); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if next := fx.cat.AllocOID(); next <= 5000 {
		t.Fatalf("AllocOID = %d after pinned 5000", next)
	}
}

func TestTypesAndFunctionsPersist(t *testing.T) {
	fx := newFixture(t)
	tx, _ := fx.mgr.Begin()
	if err := fx.cat.DefineType(tx, TypeInfo{Name: "HDF", Doc: "hierarchical data"}); err != nil {
		t.Fatal(err)
	}
	if err := fx.cat.DefineFunction(tx, FuncInfo{Name: "dims", TypeName: "HDF", Lang: "go", Doc: "dimensions"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	cat2 := fx.reopen(t)
	if ti, ok := cat2.Type("HDF"); !ok || ti.Doc != "hierarchical data" {
		t.Fatalf("type after reload: %+v %v", ti, ok)
	}
	fi, ok := cat2.Function("dims")
	if !ok || fi.TypeName != "HDF" || fi.Lang != "go" {
		t.Fatalf("function after reload: %+v %v", fi, ok)
	}
	if len(cat2.Types()) != 1 || len(cat2.Functions()) != 1 {
		t.Fatalf("listing sizes: %d types %d funcs", len(cat2.Types()), len(cat2.Functions()))
	}
}

func TestTypeAbortRollsBack(t *testing.T) {
	fx := newFixture(t)
	tx, _ := fx.mgr.Begin()
	if err := fx.cat.DefineType(tx, TypeInfo{Name: "ghost"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, ok := fx.cat.Type("ghost"); ok {
		t.Fatal("aborted type visible")
	}
	tx2, _ := fx.mgr.Begin()
	if err := fx.cat.DefineType(tx2, TypeInfo{Name: "real"}); err != nil {
		t.Fatal(err)
	}
	if err := fx.cat.DefineType(tx2, TypeInfo{Name: "real"}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate type: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestNoteOID(t *testing.T) {
	fx := newFixture(t)
	fx.cat.NoteOID(9999)
	if next := fx.cat.AllocOID(); next != 10000 {
		t.Fatalf("AllocOID after NoteOID(9999) = %d", next)
	}
}
