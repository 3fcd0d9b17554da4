// Fault-injection tests for the commit protocol: these run as an
// external test package so they can stack the real buffer pool and
// heap over a Faulty device, which the txn package proper cannot
// import.
package txn_test

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/device"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/txn"
)

const dataRel device.OID = 100

// commitRig is a minimal storage stack: one faulty device carrying
// both the transaction logs and a data relation, a buffer pool over
// it, and a manager whose ForceData flushes the pool — the same
// force-at-commit wiring core.DB uses.
type commitRig struct {
	dev    *device.Mem
	faulty *device.Faulty
	pool   *buffer.Pool
	mgr    *txn.Manager
	rel    *heap.Relation
}

func newCommitRig(t *testing.T) *commitRig {
	t.Helper()
	dev := device.NewMem(nil, 0)
	faulty := device.NewFaulty(dev, 1)
	log, err := txn.OpenLog(faulty)
	if err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager(log)
	pool := buffer.NewPool(faulty, 32)
	mgr.ForceData = func() error {
		if err := pool.FlushAll(); err != nil {
			return err
		}
		return faulty.Sync()
	}
	if err := faulty.Create(dataRel); err != nil {
		t.Fatal(err)
	}
	return &commitRig{dev: dev, faulty: faulty, pool: pool, mgr: mgr,
		rel: heap.Open(dataRel, pool, mgr)}
}

// reopen simulates recovery: the buffer cache is lost, the log is
// reopened from the (healed) device, and a fresh manager serves
// snapshots — in-progress transactions read as aborted.
func (rig *commitRig) reopen(t *testing.T) *commitRig {
	t.Helper()
	rig.faulty.Heal().Clear()
	rig.pool.Crash()
	log, err := txn.OpenLog(rig.faulty)
	if err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager(log)
	pool := buffer.NewPool(rig.faulty, 32)
	mgr.ForceData = func() error {
		if err := pool.FlushAll(); err != nil {
			return err
		}
		return rig.faulty.Sync()
	}
	return &commitRig{dev: rig.dev, faulty: rig.faulty, pool: pool, mgr: mgr,
		rel: heap.Open(dataRel, pool, mgr)}
}

func (rig *commitRig) insert(t *testing.T, tx *txn.Tx, payload string) heap.TID {
	t.Helper()
	tid, err := rig.rel.Insert(tx.ID(), []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return tid
}

// TestCommitForceDataFailureAborts: a commit whose data force fails
// must report the error, leave the transaction aborted, and keep the
// status log consistent for subsequent transactions.
func TestCommitForceDataFailureAborts(t *testing.T) {
	rig := newCommitRig(t)
	tx, err := rig.mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rig.insert(t, tx, "doomed")

	// The data relation's writeback fails; the log relations stay good,
	// so the abort record can be recorded.
	rig.faulty.FailIf(device.FaultWrite,
		func(rel device.OID, page uint32) bool { return rel == dataRel }, nil)
	if err := tx.Commit(); !errors.Is(err, device.ErrInjected) {
		t.Fatalf("Commit with failing data force: %v", err)
	}
	if !tx.Done() {
		t.Fatal("transaction left open after failed commit")
	}
	if got := rig.mgr.StatusOf(tx.ID()); got != txn.StatusAborted {
		t.Fatalf("status after failed commit = %v, want aborted", got)
	}
	if err := tx.Commit(); !errors.Is(err, txn.ErrTxDone) {
		t.Fatalf("re-commit of aborted tx: %v", err)
	}

	// The manager is fully usable afterwards.
	rig.faulty.Clear()
	tx2, err := rig.mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tid := rig.insert(t, tx2, "survivor")
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := rig.rel.Fetch(rig.mgr.CurrentSnapshot(), tid)
	if err != nil || !bytes.Equal(got, []byte("survivor")) {
		t.Fatalf("post-recovery insert: %q, %v", got, err)
	}
}

// TestCommitFailureThenCrashKeepsPreCommitState: after a failed
// commit, a crash plus reopen must show exactly the pre-commit state —
// the committed record, not the aborted one.
func TestCommitFailureThenCrashKeepsPreCommitState(t *testing.T) {
	rig := newCommitRig(t)

	tx1, err := rig.mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tidGood := rig.insert(t, tx1, "pre-commit state")
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, err := rig.mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tidBad := rig.insert(t, tx2, "never committed")
	rig.faulty.FailIf(device.FaultWrite,
		func(rel device.OID, page uint32) bool { return rel == dataRel }, nil)
	if err := tx2.Commit(); !errors.Is(err, device.ErrInjected) {
		t.Fatalf("Commit: %v", err)
	}

	rig2 := rig.reopen(t)
	snap := rig2.mgr.CurrentSnapshot()
	got, err := rig2.rel.Fetch(snap, tidGood)
	if err != nil || !bytes.Equal(got, []byte("pre-commit state")) {
		t.Fatalf("committed record after crash: %q, %v", got, err)
	}
	if _, err := rig2.rel.Fetch(snap, tidBad); !errors.Is(err, heap.ErrNotVisible) && !errors.Is(err, heap.ErrNoRecord) {
		t.Fatalf("aborted record visible after crash: %v", err)
	}
}

// TestCommitLogForceFailureAborts: when the data force succeeds but
// the status-log force fails, the transaction must not be left in
// limbo — it finishes aborted and the error says so.
func TestCommitLogForceFailureAborts(t *testing.T) {
	rig := newCommitRig(t)
	tx, err := rig.mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rig.insert(t, tx, "limbo")

	rig.faulty.FailIf(device.FaultWrite,
		func(rel device.OID, page uint32) bool { return rel == txn.StatusLogRel || rel == txn.TimeLogRel }, nil)
	err = tx.Commit()
	if !errors.Is(err, device.ErrInjected) {
		t.Fatalf("Commit with failing log force: %v", err)
	}
	if !strings.Contains(err.Error(), "transaction aborted") {
		t.Fatalf("error does not state the outcome: %v", err)
	}
	if !tx.Done() {
		t.Fatal("transaction left in limbo after failed log force")
	}
	if got := rig.mgr.StatusOf(tx.ID()); got != txn.StatusAborted {
		t.Fatalf("status = %v, want aborted", got)
	}

	// The aborted state is re-forced by the next commit once the
	// device heals, converging memory and disk.
	rig.faulty.Clear()
	tx2, err := rig.mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	rig2 := rig.reopen(t)
	if got := rig2.mgr.StatusOf(tx.ID()); got != txn.StatusAborted {
		t.Fatalf("status after reopen = %v, want aborted", got)
	}
}

// TestCrashHookMidCommit arms the one-shot "crash now" hook on the
// first status-log write, so the machine dies after the data pages are
// forced but before the commit record is stable: the canonical
// no-overwrite recovery scenario. The hook trips buffer.Pool.Crash
// mid-commit; after reopen the transaction must read as aborted and
// earlier committed data must be intact.
func TestCrashHookMidCommit(t *testing.T) {
	rig := newCommitRig(t)

	tx1, err := rig.mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tidGood := rig.insert(t, tx1, "durable")
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, err := rig.mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tidBad := rig.insert(t, tx2, "torn")
	rig.faulty.CrashIf(device.FaultWrite,
		func(rel device.OID, page uint32) bool { return rel == txn.StatusLogRel },
		rig.pool.Crash)
	err = tx2.Commit()
	if !errors.Is(err, device.ErrCrashed) {
		t.Fatalf("Commit through crash: %v", err)
	}
	if !rig.faulty.Down() {
		t.Fatal("device not down after crash hook")
	}

	rig2 := rig.reopen(t)
	if got := rig2.mgr.StatusOf(tx2.ID()); got != txn.StatusAborted {
		t.Fatalf("torn commit status after recovery = %v, want aborted", got)
	}
	snap := rig2.mgr.CurrentSnapshot()
	got, err := rig2.rel.Fetch(snap, tidGood)
	if err != nil || !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("durable record after crash: %q, %v", got, err)
	}
	if _, err := rig2.rel.Fetch(snap, tidBad); !errors.Is(err, heap.ErrNotVisible) && !errors.Is(err, heap.ErrNoRecord) {
		t.Fatalf("torn record visible after recovery: %v", err)
	}
}

// TestBeginAfterReserveForceFailure: a Begin that needs to raise the
// XID ceiling through a failing device must surface the error rather
// than hand out unreserved XIDs.
func TestBeginAfterReserveForceFailure(t *testing.T) {
	rig := newCommitRig(t)
	rig.faulty.FailIf(device.FaultWrite,
		func(rel device.OID, page uint32) bool { return rel == txn.StatusLogRel }, nil)
	var sawErr bool
	// The reserve chunk is thousands of XIDs wide; burn through Begins
	// until one crosses the ceiling and must force the control page.
	for i := 0; i < 10000; i++ {
		tx, err := rig.mgr.Begin()
		if err != nil {
			if !errors.Is(err, device.ErrInjected) {
				t.Fatalf("Begin: %v", err)
			}
			sawErr = true
			break
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	if !sawErr {
		t.Fatal("no Begin ever hit the failing control-page force")
	}
	// The failed Begin must leave no trace: its XID was never handed to
	// the caller, so it must not sit in the live set (where it would
	// show up in inv_transactions as an ageless ghost and pin the
	// vacuum horizon at that XID forever).
	if act := rig.mgr.ActiveTxns(); len(act) != 0 {
		t.Fatalf("failed Begin leaked into the live set: %+v", act)
	}
	// Healed, Begin works again.
	rig.faulty.Clear()
	tx, err := rig.mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// With no leak, the only live transaction is tx, so the horizon is
	// exactly its XID; a leaked ghost would pin the horizon below it.
	if h := rig.mgr.Horizon(); h != tx.ID() {
		t.Fatalf("horizon pinned at %d by a leaked XID, want %d", h, tx.ID())
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

// gcMember is one concurrent committer in a group-commit crash test:
// its transaction, the TID it inserted, and its payload.
type gcMember struct {
	tx      *txn.Tx
	tid     heap.TID
	payload string
}

// beginMembers starts n transactions that have each inserted one
// record, ready to commit concurrently. Begins and inserts happen
// before the caller arms any fault, so the only device activity left is
// the commit forces themselves.
func beginMembers(t *testing.T, rig *commitRig, n int) []gcMember {
	t.Helper()
	ms := make([]gcMember, n)
	for i := range ms {
		tx, err := rig.mgr.Begin()
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = gcMember{tx: tx, payload: string(rune('a' + i))}
		ms[i].tid = rig.insert(t, tx, ms[i].payload)
	}
	return ms
}

// commitAll commits every member from its own goroutine and returns the
// per-member errors after all have finished.
func commitAll(ms []gcMember) []error {
	errs := make([]error, len(ms))
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ms[i].tx.Commit()
		}(i)
	}
	wg.Wait()
	return errs
}

// checkAtomicAfterCrash reopens the rig and asserts every member is
// atomically all-or-nothing: a member whose durable status reads
// committed must have its record readable; any other status means the
// record is invisible. Returns the reopened rig and the number of
// members that survived as committed.
func checkAtomicAfterCrash(t *testing.T, rig *commitRig, ms []gcMember) (*commitRig, int) {
	t.Helper()
	rig2 := rig.reopen(t)
	snap := rig2.mgr.CurrentSnapshot()
	committed := 0
	for i, m := range ms {
		switch got := rig2.mgr.StatusOf(m.tx.ID()); got {
		case txn.StatusCommitted:
			committed++
			data, err := rig2.rel.Fetch(snap, m.tid)
			if err != nil || !bytes.Equal(data, []byte(m.payload)) {
				t.Errorf("member %d committed but unreadable: %q, %v", i, data, err)
			}
		case txn.StatusAborted:
			if _, err := rig2.rel.Fetch(snap, m.tid); !errors.Is(err, heap.ErrNotVisible) && !errors.Is(err, heap.ErrNoRecord) {
				t.Errorf("member %d aborted but record visible: %v", i, err)
			}
		default:
			t.Errorf("member %d status after recovery = %v", i, got)
		}
	}
	return rig2, committed
}

// TestGroupCommitCrashAtDataFlush crashes the machine on the first
// data-page writeback of a concurrent batch's force: no member's commit
// record can exist yet, so recovery must show every member aborted and
// no record visible.
func TestGroupCommitCrashAtDataFlush(t *testing.T) {
	rig := newCommitRig(t)
	rig.mgr.CommitWindow = 20 * time.Millisecond
	ms := beginMembers(t, rig, 4)
	rig.faulty.CrashIf(device.FaultWrite,
		func(rel device.OID, page uint32) bool { return rel == dataRel },
		rig.pool.Crash)
	for i, err := range commitAll(ms) {
		if !errors.Is(err, device.ErrCrashed) {
			t.Fatalf("member %d Commit through crash: %v", i, err)
		}
	}
	_, committed := checkAtomicAfterCrash(t, rig, ms)
	if committed != 0 {
		t.Fatalf("%d members read committed after a crash before any commit record was written", committed)
	}
}

// TestGroupCommitCrashAtStatusWrite crashes on the batch's first
// status-log page write: the members' data pages are durable but no
// commit record reached the device, so every member must recover as
// aborted with its record invisible.
func TestGroupCommitCrashAtStatusWrite(t *testing.T) {
	rig := newCommitRig(t)
	rig.mgr.CommitWindow = 20 * time.Millisecond
	ms := beginMembers(t, rig, 4)
	rig.faulty.CrashIf(device.FaultWrite,
		func(rel device.OID, page uint32) bool { return rel == txn.StatusLogRel },
		rig.pool.Crash)
	for i, err := range commitAll(ms) {
		if !errors.Is(err, device.ErrCrashed) {
			t.Fatalf("member %d Commit through crash: %v", i, err)
		}
	}
	_, committed := checkAtomicAfterCrash(t, rig, ms)
	if committed != 0 {
		t.Fatalf("%d members read committed after a crash before the status pages were written", committed)
	}
}

// TestGroupCommitCrashAtLogSync crashes on the batch's log sync — after
// the data flush (and its sync) and after the status pages were written.
// Every member's Commit still fails (the force never completed), but on
// this device the written status pages survive, so recovery may see
// members committed: each such member must be fully readable, which is
// exactly the publication-after-data-flush ordering guarantee. Members
// of a batch are indivisible here — the leader publishes all statuses
// before one log force — so recovery must not show a half-committed
// batch.
func TestGroupCommitCrashAtLogSync(t *testing.T) {
	rig := newCommitRig(t)
	rig.mgr.CommitWindow = 20 * time.Millisecond
	ms := beginMembers(t, rig, 4)
	// Sync #1 of the batch force is the data sync; #2 is the log sync.
	base := rig.faulty.Count(device.FaultSync)
	rig.faulty.CrashOn(device.FaultSync, base+2, rig.pool.Crash)
	for i, err := range commitAll(ms) {
		if !errors.Is(err, device.ErrCrashed) {
			t.Fatalf("member %d Commit through crash: %v", i, err)
		}
	}
	rig2, committed := checkAtomicAfterCrash(t, rig, ms)
	// Members that share a batch live or die together. With a 20ms
	// window and all four queued before the force, a lone crash point
	// cannot split one batch — but commits may have landed in more than
	// one batch, so assert only per-member atomicity plus: the system
	// keeps working after recovery.
	tx, err := rig2.mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tid := rig2.insert(t, tx, "after recovery")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if data, err := rig2.rel.Fetch(rig2.mgr.CurrentSnapshot(), tid); err != nil || !bytes.Equal(data, []byte("after recovery")) {
		t.Fatalf("post-recovery commit unreadable: %q, %v", data, err)
	}
	t.Logf("crash at log sync: %d/%d members recovered committed", committed, len(ms))
}

// TestGroupCommitBatchesUnderConcurrency pins the batching behaviour
// itself: with a commit window and several committers in flight, the
// pipeline must force fewer times than it commits, and the registry
// histograms must record it.
func TestGroupCommitBatchesUnderConcurrency(t *testing.T) {
	rig := newCommitRig(t)
	reg := obs.NewRegistry()
	rig.mgr.SetObs(reg)
	rig.mgr.CommitWindow = 50 * time.Millisecond
	ms := beginMembers(t, rig, 8)
	for i, err := range commitAll(ms) {
		if err != nil {
			t.Fatalf("member %d Commit: %v", i, err)
		}
	}
	bs := reg.Histogram("txn.group_commit.batch_size").Snapshot("")
	if bs.SumNs != 8 {
		t.Fatalf("batch-size histogram saw %d commits, want 8", bs.SumNs)
	}
	if bs.Count >= 8 {
		t.Fatalf("8 commits took %d forces: no batching happened", bs.Count)
	}
	if saved := reg.Counter("txn.group_commit.forces_saved").Load(); saved != 8-bs.Count {
		t.Fatalf("forces_saved = %d, want %d", saved, 8-bs.Count)
	}
	snap := rig.mgr.CurrentSnapshot()
	for i, m := range ms {
		if data, err := rig.rel.Fetch(snap, m.tid); err != nil || !bytes.Equal(data, []byte(m.payload)) {
			t.Fatalf("member %d unreadable after batched commit: %q, %v", i, data, err)
		}
	}
	t.Logf("8 commits in %d batches", bs.Count)
}

// TestLogForceSyncFailureKeepsPagesDirty is the regression test for the
// log's dirty-bit rule: a Force whose device Sync fails must keep every
// page it wrote marked dirty, so the next Force writes them again under
// a sync that succeeds. (The old code cleared dirty bits page by page
// before issuing the sync; on a device with a volatile write cache a
// failed sync then left commit records believed durable that were not —
// and the next Force had nothing to rewrite.)
func TestLogForceSyncFailureKeepsPagesDirty(t *testing.T) {
	dev := device.NewMem(nil, 0)
	faulty := device.NewFaulty(dev, 1)
	log, err := txn.OpenLog(faulty)
	if err != nil {
		t.Fatal(err)
	}
	const x, ct = txn.XID(7), int64(42)
	log.SetState(x, txn.StatusCommitted, ct)

	faulty.FailIf(device.FaultSync, func(rel device.OID, page uint32) bool { return true }, nil)
	if err := log.Force(); !errors.Is(err, device.ErrInjected) {
		t.Fatalf("Force with failing sync: %v", err)
	}

	// Healed: the next force must rewrite the status and time pages —
	// if the failed force dropped the dirty bits, nothing is written
	// and the records' durability silently depends on the failed sync.
	faulty.Clear()
	w0 := faulty.Count(device.FaultWrite)
	if err := log.Force(); err != nil {
		t.Fatal(err)
	}
	if faulty.Count(device.FaultWrite) == w0 {
		t.Fatal("Force after a failed sync wrote nothing: dirty bits were cleared before the sync succeeded")
	}

	// And the state really is durable now: a reopened log sees it.
	log2, err := txn.OpenLog(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if got := log2.State(x); got != txn.StatusCommitted {
		t.Fatalf("state after reopen = %v, want committed", got)
	}
	if got := log2.CommitTime(x); got != ct {
		t.Fatalf("commit time after reopen = %d, want %d", got, ct)
	}
}

// TestBeginNeedsDurableXIDReservation: Begin hands out an XID only
// below a reservation ceiling that has reached the device. When the
// force that raises the ceiling fails, the raised value is already in
// the log's memory; a later Begin must not take it as durable, or a
// crash can leave that transaction's commit record above the ceiling
// recovery reads, where the torn-force repair never looks.
func TestBeginNeedsDurableXIDReservation(t *testing.T) {
	rig := newCommitRig(t)
	rig.faulty.FailIf(device.FaultSync, func(device.OID, uint32) bool { return true }, nil)
	if _, err := rig.mgr.Begin(); err == nil {
		t.Fatal("Begin succeeded although its XID reservation could not be forced")
	}
	if tx, err := rig.mgr.Begin(); err == nil {
		t.Fatalf("Begin handed out xid %d while no reservation covering it was durable", tx.ID())
	}
	rig.faulty.Clear()
	tx, err := rig.mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	log, err := txn.OpenLog(rig.faulty)
	if err != nil {
		t.Fatal(err)
	}
	if log.Reserved() <= tx.ID() {
		t.Fatalf("durable ceiling %d does not cover handed-out xid %d", log.Reserved(), tx.ID())
	}
}
