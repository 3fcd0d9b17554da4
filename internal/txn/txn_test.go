package txn

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
)

// fakeTime returns a deterministic, strictly increasing time source.
func fakeTime() func() int64 {
	var mu sync.Mutex
	t := int64(1000)
	return func() int64 {
		mu.Lock()
		defer mu.Unlock()
		t += 10
		return t
	}
}

func newManager(t *testing.T) (*Manager, device.Manager) {
	t.Helper()
	dev := device.NewMem(nil, 0)
	log, err := OpenLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(log)
	m.TimeSource = fakeTime()
	return m, dev
}

func TestCommitAndStatus(t *testing.T) {
	m, _ := newManager(t)
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.StatusOf(tx.ID()); got != StatusInProgress {
		t.Fatalf("live tx status = %v", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := m.StatusOf(tx.ID()); got != StatusCommitted {
		t.Fatalf("committed tx status = %v", got)
	}
	if m.CommitTime(tx.ID()) == 0 {
		t.Fatal("no commit time recorded")
	}
}

func TestAbort(t *testing.T) {
	m, _ := newManager(t)
	tx, _ := m.Begin()
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := m.StatusOf(tx.ID()); got != StatusAborted {
		t.Fatalf("aborted tx status = %v", got)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("commit after abort: %v", err)
	}
}

func TestCrashRecoveryRollsBackInProgress(t *testing.T) {
	m, dev := newManager(t)
	committed, _ := m.Begin()
	if err := committed.Commit(); err != nil {
		t.Fatal(err)
	}
	inflight, _ := m.Begin()
	_ = inflight // never commits: the "crash"

	// Recovery: reopen the log on the same device.
	log2, err := OpenLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(log2)
	if got := m2.StatusOf(committed.ID()); got != StatusCommitted {
		t.Fatalf("committed tx lost in crash: %v", got)
	}
	if got := m2.StatusOf(inflight.ID()); got != StatusAborted {
		t.Fatalf("in-flight tx not rolled back: %v", got)
	}
	// New XIDs must not collide with pre-crash ones.
	tx, err := m2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if tx.ID() <= inflight.ID() {
		t.Fatalf("XID reuse after crash: %d <= %d", tx.ID(), inflight.ID())
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m, _ := newManager(t)
	t1, _ := m.Begin()
	snapBefore := m.CurrentSnapshot()
	// Concurrent reader's snapshot taken while t1 runs.
	t2, _ := m.Begin()
	snapDuring := t2.Snapshot()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// t1's effects: invisible to both earlier snapshots, visible to new.
	if snapBefore.CanSee(t1.ID(), InvalidXID) {
		t.Fatal("pre-existing snapshot sees later commit")
	}
	if snapDuring.CanSee(t1.ID(), InvalidXID) {
		t.Fatal("concurrent snapshot sees commit that happened after it")
	}
	if !m.CurrentSnapshot().CanSee(t1.ID(), InvalidXID) {
		t.Fatal("new snapshot blind to committed tx")
	}
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestSeesAllThrough: a snapshot vouches for the transactions up to x
// only if none of them was still running, or not yet begun, when it was
// taken — whatever became of them since — and a time-travel view never
// does.
func TestSeesAllThrough(t *testing.T) {
	m, _ := newManager(t)
	t1, _ := m.Begin()
	t2, _ := m.Begin()
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	during := m.CurrentSnapshot() // t1 running, t2 done
	if during.SeesAllThrough(t2.ID()) || during.SeesAllThrough(t1.ID()) {
		t.Fatal("snapshot vouches for a range holding a running transaction")
	}
	if t1.ID() > 1 && !during.SeesAllThrough(t1.ID()-1) {
		t.Fatal("snapshot does not vouch for what ended before it")
	}
	own := m.CurrentSnapshotFor(t1.ID())
	if !own.SeesAllThrough(t2.ID()) {
		t.Fatal("a transaction's own number counts against its snapshot")
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if during.SeesAllThrough(t2.ID()) {
		t.Fatal("a later commit changed what an old snapshot vouches for")
	}
	after := m.CurrentSnapshot()
	if !after.SeesAllThrough(t2.ID()) {
		t.Fatal("fresh snapshot does not vouch for ended transactions")
	}
	t3, _ := m.Begin()
	if after.SeesAllThrough(t3.ID()) {
		t.Fatal("snapshot vouches for a transaction begun after it")
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	if m.AsOf(m.CommitTime(t3.ID())).SeesAllThrough(t1.ID()) {
		t.Fatal("time-travel view vouches by transaction number")
	}
}

func TestOwnChangesVisible(t *testing.T) {
	m, _ := newManager(t)
	tx, _ := m.Begin()
	snap := tx.Snapshot()
	if !snap.CanSee(tx.ID(), InvalidXID) {
		t.Fatal("tx blind to own insert")
	}
	if snap.CanSee(tx.ID(), tx.ID()) {
		t.Fatal("tx sees record it deleted itself")
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestTimeTravelSnapshots(t *testing.T) {
	m, _ := newManager(t)
	t1, _ := m.Begin()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	time1 := m.CommitTime(t1.ID())

	t2, _ := m.Begin()
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	time2 := m.CommitTime(t2.ID())
	if time2 <= time1 {
		t.Fatalf("commit times not increasing: %d, %d", time1, time2)
	}

	// As of time1: t1 visible, t2 not. Record deleted by t2 visible.
	old := m.AsOf(time1)
	if !old.CanSee(t1.ID(), InvalidXID) {
		t.Fatal("asof misses earlier commit")
	}
	if old.CanSee(t2.ID(), InvalidXID) {
		t.Fatal("asof sees later commit")
	}
	if !old.CanSee(t1.ID(), t2.ID()) {
		t.Fatal("asof misses record later deleted")
	}
	if !old.Historical() {
		t.Fatal("asof snapshot not historical")
	}
	// As of time2: deletion visible.
	now := m.AsOf(time2)
	if now.CanSee(t1.ID(), t2.ID()) {
		t.Fatal("asof(time2) still sees deleted record")
	}
}

func TestCommitTimesMonotoneUnderBadClock(t *testing.T) {
	m, _ := newManager(t)
	m.TimeSource = func() int64 { return 5 } // stuck clock
	var last int64
	for i := 0; i < 5; i++ {
		tx, _ := m.Begin()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		ct := m.CommitTime(tx.ID())
		if ct <= last {
			t.Fatalf("commit time not monotone: %d after %d", ct, last)
		}
		last = ct
	}
}

func TestLockSharedCompatible(t *testing.T) {
	lm := NewLockManager()
	tag := LockTag{Space: SpaceRelation, Rel: 1}
	if err := lm.Acquire(10, tag, LockShared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(11, tag, LockShared); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(10)
	lm.ReleaseAll(11)
}

func TestLockExclusiveBlocks(t *testing.T) {
	lm := NewLockManager()
	tag := LockTag{Space: SpaceRelation, Rel: 1}
	if err := lm.Acquire(10, tag, LockExclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- lm.Acquire(11, tag, LockExclusive) }()
	select {
	case <-acquired:
		t.Fatal("conflicting lock granted immediately")
	case <-time.After(20 * time.Millisecond):
	}
	lm.ReleaseAll(10)
	if err := <-acquired; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(11)
}

func TestLockUpgrade(t *testing.T) {
	lm := NewLockManager()
	tag := LockTag{Space: SpaceRelation, Rel: 1}
	if err := lm.Acquire(10, tag, LockShared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(10, tag, LockExclusive); err != nil {
		t.Fatalf("sole-holder upgrade failed: %v", err)
	}
	// Another shared request must now block.
	acquired := make(chan error, 1)
	go func() { acquired <- lm.Acquire(11, tag, LockShared) }()
	select {
	case <-acquired:
		t.Fatal("shared granted against exclusive")
	case <-time.After(20 * time.Millisecond):
	}
	lm.ReleaseAll(10)
	if err := <-acquired; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(11)
}

func TestDeadlockDetected(t *testing.T) {
	lm := NewLockManager()
	a := LockTag{Space: SpaceRelation, Rel: 1}
	b := LockTag{Space: SpaceRelation, Rel: 2}
	if err := lm.Acquire(10, a, LockExclusive); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(11, b, LockExclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- lm.Acquire(10, b, LockExclusive) }()
	time.Sleep(20 * time.Millisecond) // let 10 start waiting on 11
	err := lm.Acquire(11, a, LockExclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("second edge of cycle: %v", err)
	}
	// Victim aborts, releasing its locks; the other waiter proceeds.
	lm.ReleaseAll(11)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(10)
}

// TestHorizon: the horizon is the oldest XID some live transaction's
// snapshot still treats as unfinished. t2 began while t1 was running,
// so after t1 commits t2 still does not see it: a record t1 deleted is
// still visible to t2, and the vacuum cleaner (which collects what was
// deleted below the horizon) must not take it until t2 ends. The seed
// reported the smallest live XID, let vacuum collect such records, and
// readers that had waited for a writer's lock then read holes.
func TestHorizon(t *testing.T) {
	m, _ := newManager(t)
	t0, _ := m.Begin()
	if err := t0.Commit(); err != nil {
		t.Fatal(err)
	}
	t1, _ := m.Begin()
	t2, _ := m.Begin()
	if h := m.Horizon(); h != t1.ID() {
		t.Fatalf("horizon = %d, want %d", h, t1.ID())
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if !t2.Snapshot().CanSee(t0.ID(), t1.ID()) {
		t.Fatal("t2 sees a delete by t1, which was running when t2 began")
	}
	if h := m.Horizon(); h != t1.ID() {
		t.Fatalf("horizon = %d with t2 still blind to t1; want %d", h, t1.ID())
	}
	t3, _ := m.Begin() // began after t1 committed: holds back only t2 and itself
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if h := m.Horizon(); h != t2.ID() {
		t.Fatalf("horizon = %d, want %d", h, t2.ID())
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	if h := m.Horizon(); h <= t3.ID() {
		t.Fatalf("idle horizon = %d", h)
	}
}

func TestOnEndHooks(t *testing.T) {
	m, _ := newManager(t)
	tx, _ := m.Begin()
	var got []bool
	tx.OnEnd(func(c bool) { got = append(got, c) })
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0] {
		t.Fatalf("hooks = %v", got)
	}
	tx2, _ := m.Begin()
	tx2.OnEnd(func(c bool) { got = append(got, c) })
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] {
		t.Fatalf("hooks = %v", got)
	}
}

func TestManyXIDsAcrossReserveChunks(t *testing.T) {
	m, dev := newManager(t)
	var lastID XID
	for i := 0; i < xidReserveChunk+10; i++ {
		tx, err := m.Begin()
		if err != nil {
			t.Fatal(err)
		}
		lastID = tx.ID()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Recover and confirm no reuse.
	log2, err := OpenLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(log2)
	tx, err := m2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if tx.ID() <= lastID {
		t.Fatalf("XID %d reused after recovery (last was %d)", tx.ID(), lastID)
	}
	if got := m2.StatusOf(lastID); got != StatusCommitted {
		t.Fatalf("status lost across chunks: %v", got)
	}
}
