package txn

// External-abort tests: the wire server's idle-session reaper (and
// shutdown path) ends transactions from outside the owning goroutine,
// so ending must be exactly-once and must cancel a lock wait the owner
// is blocked in.

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestReleaseAllCancelsQueuedWaiter(t *testing.T) {
	lm := NewLockManager()
	a := LockTag{Space: SpaceRelation, Rel: 1}
	if err := lm.Acquire(10, a, LockExclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- lm.Acquire(11, a, LockExclusive) }()
	time.Sleep(20 * time.Millisecond) // let 11 queue behind 10

	lm.ReleaseAll(11) // external abort of the *waiter*
	if err := <-got; !errors.Is(err, ErrLockAborted) {
		t.Fatalf("cancelled waiter got %v, want ErrLockAborted", err)
	}

	// The queue entry is gone: releasing the holder leaves the lock free
	// for a newcomer, not granted to the cancelled waiter.
	lm.ReleaseAll(10)
	if err := lm.Acquire(12, a, LockExclusive); err != nil {
		t.Fatalf("lock not free after cancelled waiter: %v", err)
	}
	lm.ReleaseAll(12)
}

func TestExternalAbortUnblocksLockWait(t *testing.T) {
	m, _ := newManager(t)
	holder, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	a := LockTag{Space: SpaceRelation, Rel: 7}
	if err := holder.Lock(a, LockExclusive); err != nil {
		t.Fatal(err)
	}
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- tx.Lock(a, LockExclusive) }()
	time.Sleep(20 * time.Millisecond) // let tx block in Acquire

	// The reaper's view: abort tx from another goroutine. The blocked
	// Lock must return the cancellation error, not hang.
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-got; !errors.Is(err, ErrLockAborted) {
		t.Fatalf("blocked Lock after external abort = %v, want ErrLockAborted", err)
	}

	// Ending is exactly-once: the owner's own end loses cleanly.
	if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("second abort = %v, want ErrTxDone", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("commit after abort = %v, want ErrTxDone", err)
	}
	if !tx.Done() {
		t.Fatal("externally aborted tx not done")
	}
	if err := holder.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestExternalAbortDuringLockGrantLeaksNothing races Lock against an
// external end. Whatever the interleaving — the abort's ReleaseAll
// running before, during, or after the grant — no lock may remain held
// by the dead transaction: a grant that lands after ReleaseAll already
// ran would block the tag forever.
func TestExternalAbortDuringLockGrantLeaksNothing(t *testing.T) {
	m, _ := newManager(t)
	tag := LockTag{Space: SpaceRelation, Rel: 99}
	for i := 0; i < 200; i++ {
		tx, err := m.Begin()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		var lockErr error
		go func() { defer wg.Done(); lockErr = tx.Lock(tag, LockExclusive) }()
		go func() { defer wg.Done(); tx.Abort() }()
		wg.Wait()
		for _, d := range m.Locks().DumpLocks() {
			if d.Txn == tx.ID() {
				t.Fatalf("iter %d: aborted tx still in the lock table: %+v (Lock err: %v)", i, d, lockErr)
			}
		}
		// The tag must be immediately takeable by a fresh transaction.
		probe, err := m.Begin()
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan error, 1)
		go func() { got <- probe.Lock(tag, LockExclusive) }()
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("iter %d: probe lock: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("iter %d: tag leaked — still blocked after external abort", i)
		}
		if err := probe.Abort(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCommitAbortRaceExactlyOnce(t *testing.T) {
	m, _ := newManager(t)
	for i := 0; i < 50; i++ {
		tx, err := m.Begin()
		if err != nil {
			t.Fatal(err)
		}
		results := make(chan error, 2)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); results <- tx.Commit() }()
		go func() { defer wg.Done(); results <- tx.Abort() }()
		wg.Wait()
		close(results)
		var won, lost int
		for err := range results {
			switch {
			case err == nil:
				won++
			case errors.Is(err, ErrTxDone):
				lost++
			default:
				t.Fatalf("racing end returned %v", err)
			}
		}
		if won != 1 || lost != 1 {
			t.Fatalf("race %d: %d winners, %d losers; want exactly one each", i, won, lost)
		}
		if !tx.Done() {
			t.Fatalf("race %d: tx not done after both ends returned", i)
		}
	}
}
