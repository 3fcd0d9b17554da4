package heap

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/txn"
)

// scanRecord fills b with record id's contents: the id up front, then
// bytes that depend on the id and the position, so another record's
// bytes — or the same page's after a compaction moved them — cannot
// pass for it.
func scanRecord(b []byte, id uint64) {
	binary.LittleEndian.PutUint64(b, id)
	for i := 8; i < len(b); i++ {
		b[i] = byte(id*31) ^ byte(i) ^ byte(i>>8)
	}
}

func checkScanRecord(p []byte) (uint64, error) {
	if len(p) < 8 {
		return 0, fmt.Errorf("record of %d bytes", len(p))
	}
	id := binary.LittleEndian.Uint64(p)
	for i := 8; i < len(p); i++ {
		if p[i] != byte(id*31)^byte(i)^byte(i>>8) {
			return id, fmt.Errorf("record %d: byte %d is %#x, not its own", id, i, p[i])
		}
	}
	return id, nil
}

// TestScanLendsPayloadsUntilCallbackReturns pins Scan's contract: the
// payload handed to fn is the scan's own copy, good until fn returns
// whatever happens to the page it came from meanwhile, and fn holds no
// latch or pin — so it may delete the record it is looking at, insert,
// vacuum the relation (which compacts the very page being scanned),
// scan the relation again, and push every frame of a 4-frame pool
// through eviction. Several scanners and a writer run at once so -race
// sees any byte the scan lends that the page's writers can still reach.
func TestScanLendsPayloadsUntilCallbackReturns(t *testing.T) {
	const records, recSize = 120, 700 // ~11 records a page, ~11 pages
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	fx := newFixture(t)
	fx.pool = buffer.NewPool(fx.sw, 4)
	fx.rel = Open(fx.rel.OID, fx.pool, fx.mgr)

	// The stable set every scan must deliver exactly once, interleaved
	// with aborted inserts that leave holes for the vacuum to close.
	buf := make([]byte, recSize)
	for id := uint64(1); id <= records; id++ {
		tx := fx.begin(t)
		scanRecord(buf, id)
		if _, err := fx.rel.Insert(tx.ID(), buf); err != nil {
			t.Fatal(err)
		}
		fx.commit(t, tx)
		if id%3 == 0 {
			dead := fx.begin(t)
			if _, err := fx.rel.Insert(dead.ID(), buf[:recSize/2]); err != nil {
				t.Fatal(err)
			}
			if err := dead.Abort(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// churn is what a callback (or the writer beside it) does to the
	// relation: an aborted insert, a committed insert-and-delete the
	// scanners' snapshots must never see as live, and a vacuum pass.
	var churnID atomic.Uint64
	churnID.Store(1 << 32)
	churn := func() error {
		b := make([]byte, recSize/3)
		scanRecord(b, churnID.Add(1))
		dead, err := fx.mgr.Begin()
		if err != nil {
			return err
		}
		if _, err := fx.rel.Insert(dead.ID(), b); err != nil {
			return err
		}
		if err := dead.Abort(); err != nil {
			return err
		}
		tx, err := fx.mgr.Begin()
		if err != nil {
			return err
		}
		tid, err := fx.rel.Insert(tx.ID(), b)
		if err != nil {
			return err
		}
		if err := fx.rel.Delete(tx.ID(), tid); err != nil {
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		_, err = fx.rel.Vacuum(fx.mgr.Horizon(), VacuumDiscard, nil, 0, nil)
		return err
	}

	scanOnce := func(mutate bool) error {
		seen := make(map[uint64]bool, records)
		err := fx.rel.Scan(fx.mgr.CurrentSnapshot(), func(tid TID, p []byte) (bool, error) {
			id, err := checkScanRecord(p)
			if err != nil {
				return false, fmt.Errorf("at %s: %w", tid, err)
			}
			if id > records {
				return false, fmt.Errorf("at %s: churn record %d is visible", tid, id)
			}
			if seen[id] {
				return false, fmt.Errorf("record %d delivered twice", id)
			}
			seen[id] = true
			if !mutate || id%7 != 0 {
				return false, nil
			}
			// Pull the page out from under the payload, then look again.
			if err := churn(); err != nil {
				return false, err
			}
			inner := 0
			if err := fx.rel.Scan(fx.mgr.CurrentSnapshot(), func(_ TID, q []byte) (bool, error) {
				inner++
				_, err := checkScanRecord(q)
				return false, err
			}); err != nil {
				return false, fmt.Errorf("nested scan: %w", err)
			}
			if inner < records {
				return false, fmt.Errorf("nested scan saw %d records, want at least %d", inner, records)
			}
			if again, err := checkScanRecord(p); err != nil || again != id {
				return false, fmt.Errorf("record %d changed under its callback: now %d, %v", id, again, err)
			}
			return false, nil
		})
		if err != nil {
			return err
		}
		if len(seen) != records {
			return fmt.Errorf("scan delivered %d of %d records", len(seen), records)
		}
		return nil
	}

	var (
		wg       sync.WaitGroup
		done     atomic.Bool
		firstErr atomic.Value
	)
	fail := func(err error) {
		firstErr.CompareAndSwap(nil, err)
		done.Store(true)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			if err := churn(); err != nil {
				fail(fmt.Errorf("writer: %w", err))
				return
			}
		}
	}()
	var scanners sync.WaitGroup
	for s := 0; s < 3; s++ {
		scanners.Add(1)
		go func(s int) {
			defer scanners.Done()
			for r := 0; r < rounds && !done.Load(); r++ {
				if err := scanOnce(s == 0); err != nil {
					fail(fmt.Errorf("scanner %d: %w", s, err))
					return
				}
			}
		}(s)
	}
	scanners.Wait()
	done.Store(true)
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if st := fx.pool.Stats(); st.Evictions < int64(rounds) {
		t.Fatalf("only %d evictions: the pool did not recycle", st.Evictions)
	}
}

// TestScanAllocatesPerScanNotPerRecord: the batch is pooled and refilled
// in place, so what a scan allocates does not grow with what it reads.
func TestScanAllocatesPerScanNotPerRecord(t *testing.T) {
	fx := newFixture(t)
	tx := fx.begin(t)
	const records = 400
	for i := 0; i < records; i++ {
		if _, err := fx.rel.Insert(tx.ID(), []byte("sixteen byte row")); err != nil {
			t.Fatal(err)
		}
	}
	fx.commit(t, tx)
	snap := fx.mgr.CurrentSnapshot()
	n := 0
	allocs := testing.AllocsPerRun(20, func() {
		if err := fx.rel.Scan(snap, func(TID, []byte) (bool, error) { n++; return false, nil }); err != nil {
			t.Fatal(err)
		}
	})
	if n != 21*records {
		t.Fatalf("scans saw %d records, want %d", n, 21*records)
	}
	if allocs > records/10 {
		t.Fatalf("a scan of %d records made %.0f allocations", records, allocs)
	}
}

// TestScanPassesOverSpentPages: once every record on a page has been
// deleted by a committed transaction a scan stops reading the page — but
// only under a snapshot that sees all of those deleters. A snapshot
// older than one of them, a snapshot that saw one still running and a
// time-travel view are all still shown the page, and a record laid down
// in a spent page is found at once.
func TestScanPassesOverSpentPages(t *testing.T) {
	const records, recSize = 55, 700 // 11 records a page, 5 pages
	fx := newFixture(t)
	buf := make([]byte, recSize)
	ins := fx.begin(t)
	tids := make(map[uint64]TID)
	for id := uint64(1); id <= records; id++ {
		scanRecord(buf, id)
		tid, err := fx.rel.Insert(ins.ID(), buf)
		if err != nil {
			t.Fatal(err)
		}
		tids[id] = tid
	}
	fx.commit(t, ins)
	if n, _ := fx.rel.NPages(); n != 5 {
		t.Fatalf("%d pages, want 5", n)
	}
	inserted := fx.mgr.CommitTime(ins.ID())

	// scan returns the ids snap sees and the pages the scan read.
	scan := func(snap *txn.Snapshot) (ids map[uint64]bool, pages int64) {
		t.Helper()
		st := fx.pool.Stats()
		ids = make(map[uint64]bool)
		err := fx.rel.Scan(snap, func(_ TID, p []byte) (bool, error) {
			id, err := checkScanRecord(p)
			ids[id] = true
			return false, err
		})
		if err != nil {
			t.Fatal(err)
		}
		now := fx.pool.Stats()
		return ids, now.Hits + now.Misses - st.Hits - st.Misses
	}
	want := func(what string, ids map[uint64]bool, live func(id uint64) bool) {
		t.Helper()
		for id := uint64(1); id <= records; id++ {
			if ids[id] != live(id) {
				t.Fatalf("%s: record %d (page %d) seen = %v", what, id, tids[id].Page, ids[id])
			}
		}
	}
	everything := func(uint64) bool { return true }

	// Pages 1 to 3 die: one record of page 1 at the hands of a slow
	// transaction, the rest in an older one that commits first.
	before := fx.mgr.CurrentSnapshot()
	var slowID uint64
	quick, slow := fx.begin(t), fx.begin(t)
	for id, tid := range tids {
		if tid.Page < 1 || tid.Page > 3 {
			continue
		}
		x := quick
		if tid.Page == 1 && (slowID == 0 || id == slowID) {
			slowID, x = id, slow
		}
		if err := fx.rel.Delete(x.ID(), tid); err != nil {
			t.Fatal(err)
		}
	}
	fx.commit(t, quick)
	outer := func(id uint64) bool { return tids[id].Page == 0 || tids[id].Page == 4 }
	slowToo := func(id uint64) bool { return outer(id) || id == slowID }

	during := fx.mgr.CurrentSnapshot() // slow is still running
	ids, pages := scan(during)
	want("first scan", ids, slowToo)
	if pages != 5 {
		t.Fatalf("first scan read %d pages, want 5", pages)
	}
	ids, pages = scan(fx.mgr.CurrentSnapshot())
	want("second scan", ids, slowToo)
	if pages != 3 {
		t.Fatalf("second scan read %d pages, want 3: pages 2 and 3 are spent", pages)
	}

	fx.commit(t, slow)
	ids, _ = scan(fx.mgr.CurrentSnapshot()) // finds page 1 spent
	want("after slow", ids, outer)
	ids, pages = scan(fx.mgr.CurrentSnapshot())
	want("after slow, again", ids, outer)
	if pages != 2 {
		t.Fatalf("read %d pages, want 2: pages 1 to 3 are spent", pages)
	}

	// The views that can still see something on the spent pages.
	ids, _ = scan(during)
	want("snapshot from while slow ran", ids, slowToo)
	ids, pages = scan(before)
	want("snapshot from before the deletes", ids, everything)
	if pages != 5 {
		t.Fatalf("the old snapshot read %d pages, want 5", pages)
	}
	ids, _ = scan(fx.mgr.AsOf(inserted))
	want("time travel", ids, everything)
	n := 0
	if err := fx.rel.ScanAll(func(TID, txn.XID, txn.XID, []byte) (bool, error) { n++; return false, nil }); err != nil || n != records {
		t.Fatalf("ScanAll saw %d records (%v), want %d", n, err, records)
	}

	// Vacuum empties the spent pages; a record then laid down in one of
	// them is seen by its own transaction and, committed, by the next.
	if _, err := fx.rel.Vacuum(fx.mgr.Horizon(), VacuumDiscard, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	fx.rel.insertHint, fx.rel.haveHint = 2, true
	late := fx.begin(t)
	scanRecord(buf, records+1)
	tid, err := fx.rel.Insert(late.ID(), buf)
	if err != nil || tid.Page != 2 {
		t.Fatalf("insert went to %v (%v), want page 2", tid, err)
	}
	if ids, _ = scan(late.Snapshot()); !ids[records+1] {
		t.Fatal("a transaction does not see the record it put in a spent page")
	}
	if ids, _ = scan(fx.mgr.CurrentSnapshot()); ids[records+1] {
		t.Fatal("uncommitted record seen from outside")
	}
	fx.commit(t, late)
	ids, pages = scan(fx.mgr.CurrentSnapshot())
	if !ids[records+1] || len(ids) != 23 || pages != 3 {
		t.Fatalf("after the late insert: %d records over %d pages, late seen = %v; want 23 over 3", len(ids), pages, ids[records+1])
	}
}
