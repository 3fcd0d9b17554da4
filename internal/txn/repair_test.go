package txn

import (
	"encoding/binary"
	"testing"

	"repro/internal/device"
)

// Regression test for the torn commit force found by the torture
// harness: the log force writes status pages, then time pages, then
// syncs. A crash between the status write and the time write leaves a
// transaction whose status is committed but whose commit time is zero
// — and since every real commit time is ≥ 1, such a transaction is
// visible as of EVERY time, including instants before it ran, which
// breaks time travel. The sync never completed, so the commit was
// never acknowledged and aborting it on recovery is always safe.
// OpenLog must repair the state; before the repair existed this test
// fails with a committed status and CommitTime 0.
func TestRecoveryRepairsZeroCommitTime(t *testing.T) {
	dev := device.NewMem(nil, 0)
	l, err := OpenLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	const x = XID(2)
	if err := l.ReserveThrough(16); err != nil {
		t.Fatal(err)
	}
	l.SetState(x, StatusCommitted, 12345)
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}

	// Simulate the torn force on the device: zero exactly the 8 bytes
	// of x's commit time (the bootstrap XID's time shares the page and
	// must survive).
	pi, off := timeLoc(x)
	buf := make([]byte, device.PageSize)
	if err := dev.ReadPage(TimeLogRel, uint32(pi), buf); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(buf[off:]); got != 12345 {
		t.Fatalf("commit time on device = %d, want 12345", got)
	}
	for i := 0; i < 8; i++ {
		buf[off+i] = 0
	}
	if err := dev.WritePage(TimeLogRel, uint32(pi), buf); err != nil {
		t.Fatal(err)
	}

	// Recovery: the committed-without-time transaction must come back
	// aborted, not committed-at-time-zero.
	l2, err := OpenLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.State(x); got != StatusAborted {
		t.Fatalf("after recovery, State(%d) = %v, want aborted (commit time was lost)", x, got)
	}
	if n := l2.repairs; n != 1 {
		t.Fatalf("repairs = %d, want 1", n)
	}
	if bad := l2.CheckZeroTimes(); len(bad) != 0 {
		t.Fatalf("CheckZeroTimes() after repair = %v, want none", bad)
	}
	// The bootstrap commit on the same time page is untouched.
	if got := l2.State(BootstrapXID); got != StatusCommitted {
		t.Fatalf("bootstrap status = %v after repair", got)
	}
	if got := l2.CommitTime(BootstrapXID); got != 1 {
		t.Fatalf("bootstrap commit time = %d after repair", got)
	}

	// The repair is durable and idempotent: a third open finds nothing
	// to do.
	l3, err := OpenLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := l3.State(x); got != StatusAborted {
		t.Fatalf("second recovery, State(%d) = %v, want aborted", x, got)
	}
	if n := l3.repairs; n != 0 {
		t.Fatalf("second recovery repaired %d transactions, want 0", n)
	}
}

// A committed transaction below the checkpoint is never scanned (its
// pages may not even be loaded), and a zero that never hit the device
// needs no repair: a normal commit round-trips untouched.
func TestZeroTimeRepairLeavesHealthyCommitsAlone(t *testing.T) {
	dev := device.NewMem(nil, 0)
	l, err := OpenLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ReserveThrough(16); err != nil {
		t.Fatal(err)
	}
	l.SetState(2, StatusCommitted, 777)
	l.SetState(3, StatusAborted, 0)
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if n := l2.repairs; n != 0 {
		t.Fatalf("healthy log repaired %d transactions, want 0", n)
	}
	if got := l2.State(2); got != StatusCommitted {
		t.Fatalf("State(2) = %v, want committed", got)
	}
	if got := l2.CommitTime(2); got != 777 {
		t.Fatalf("CommitTime(2) = %d, want 777", got)
	}
	if got := l2.State(3); got != StatusAborted {
		t.Fatalf("State(3) = %v, want aborted", got)
	}
}
