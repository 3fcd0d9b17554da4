// Checkpoint tests: the log control page remembers a low-water XID so
// recovery only eagerly reads the pages above it; everything below
// faults in lazily, with the same answers it would have given eagerly.
package txn_test

import (
	"testing"

	"repro/internal/device"
	"repro/internal/txn"
)

// populateLog reserves and commits XIDs 2..n with commit time == XID,
// forcing once at the end. Enough XIDs spill the time log across
// several pages, which is what gives the checkpoint something to skip.
func populateLog(t *testing.T, log *txn.Log, n uint32) {
	t.Helper()
	if err := log.ReserveThrough(txn.XID(n)); err != nil {
		t.Fatal(err)
	}
	for x := uint32(2); x <= n; x++ {
		log.SetState(txn.XID(x), txn.StatusCommitted, int64(x))
	}
	if err := log.Force(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointBoundsRecoveryLoad(t *testing.T) {
	dev := device.NewMem(nil, 0)
	log, err := txn.OpenLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	populateLog(t, log, 1300)

	// Without a checkpoint, reopen is all-eager: every page resident.
	pre, err := txn.OpenLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if loaded, total := pre.LoadedPages(); loaded != total {
		t.Fatalf("no checkpoint: reopen loaded %d/%d pages, want all", loaded, total)
	}

	if err := log.Checkpoint(txn.XID(1200), 1199); err != nil {
		t.Fatal(err)
	}
	log2, err := txn.OpenLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := log2.CheckpointXID(); got != txn.XID(1200) {
		t.Fatalf("CheckpointXID after reopen = %d, want 1200", got)
	}
	loaded, total := log2.LoadedPages()
	if loaded >= total {
		t.Fatalf("checkpointed reopen loaded %d/%d pages, want fewer", loaded, total)
	}

	// History below the checkpoint still answers correctly, via lazy
	// fault-in, and the faulted pages become resident.
	if got := log2.State(txn.XID(5)); got != txn.StatusCommitted {
		t.Fatalf("State(5) below checkpoint = %v, want committed", got)
	}
	if got := log2.CommitTime(txn.XID(5)); got != 5 {
		t.Fatalf("CommitTime(5) below checkpoint = %d, want 5", got)
	}
	if log2.LazyLoads() == 0 {
		t.Fatal("reads below the checkpoint faulted no pages in")
	}
	if nowLoaded, _ := log2.LoadedPages(); nowLoaded <= loaded {
		t.Fatalf("loaded pages %d -> %d after lazy reads, want growth", loaded, nowLoaded)
	}
	// Above the checkpoint is the eager window: answered without
	// further lazy loads.
	lazy := log2.LazyLoads()
	if got := log2.State(txn.XID(1250)); got != txn.StatusCommitted {
		t.Fatalf("State(1250) above checkpoint = %v, want committed", got)
	}
	if log2.LazyLoads() != lazy {
		t.Fatal("read above the checkpoint took a lazy load")
	}
}

func TestCheckpointNeverRegresses(t *testing.T) {
	dev := device.NewMem(nil, 0)
	log, err := txn.OpenLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	populateLog(t, log, 600)
	if err := log.Checkpoint(txn.XID(500), 499); err != nil {
		t.Fatal(err)
	}
	if err := log.Checkpoint(txn.XID(100), 99); err != nil {
		t.Fatal(err)
	}
	if got := log.CheckpointXID(); got != txn.XID(500) {
		t.Fatalf("checkpoint regressed to %d", got)
	}
}

// TestManagerCheckpointUsesHorizon: Manager.Checkpoint checkpoints at
// the oldest-active horizon, so statuses a live snapshot might still
// need stay in the eager window.
func TestManagerCheckpointUsesHorizon(t *testing.T) {
	rig := newCommitRig(t)
	for i := 0; i < 3; i++ {
		tx, err := rig.mgr.Begin()
		if err != nil {
			t.Fatal(err)
		}
		rig.insert(t, tx, "x")
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rig.mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := rig.mgr.Horizon()
	rig2 := rig.reopen(t)
	if got := rig2.mgr.Log().CheckpointXID(); got != want {
		t.Fatalf("persisted checkpoint = %d, want horizon %d", got, want)
	}
}

// TestCheckpointCarriesCommitClock: the checkpoint records the latest
// commit time below it, and a reopened log starts its clock at the
// later of that and every commit time in the window it reads — so a
// manager opened over it never stamps a commit before an old one, even
// when the checkpoint left no commit in the window.
func TestCheckpointCarriesCommitClock(t *testing.T) {
	dev := device.NewMem(nil, 0)
	log, err := txn.OpenLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	populateLog(t, log, 600) // XIDs 2..600 committed at times 2..600
	if err := log.Checkpoint(txn.XID(500), 499); err != nil {
		t.Fatal(err)
	}
	reopened, err := txn.OpenLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.LastCommitTime(); got != 600 {
		t.Fatalf("after a checkpoint at 500: LastCommitTime = %d, want 600 (read from the window)", got)
	}

	// A checkpoint above every commit: the window holds none, and only
	// the recorded time carries the clock.
	if err := reopened.Checkpoint(txn.XID(601), 600); err != nil {
		t.Fatal(err)
	}
	again, err := txn.OpenLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.LastCommitTime(); got != 600 {
		t.Fatalf("after a checkpoint at 601: LastCommitTime = %d, want 600 (from the control page)", got)
	}
	if got := txn.NewManager(again).LastCommitTime(); got != 600 {
		t.Fatalf("manager over the reopened log starts its clock at %d, want 600", got)
	}
}
