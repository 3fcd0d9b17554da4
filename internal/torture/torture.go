// Package torture is the crash-state enumeration harness: a
// record/replay torture chamber for the commit pipeline.
//
// Crash consistency is a protocol property, not a point property.
// Single-fault injection (device.Faulty) proves the system survives one
// chosen failure; it says nothing about the states a real power cut can
// leave behind, which are determined by what the device had actually
// persisted when the machine died. This package closes that gap the
// ALICE way: record the exact sequence of operations the file system
// issued to its backend (device.Recorder), then *construct* every disk
// image a crash could legally have produced from that sequence, reopen
// the database on each image, and check the durability invariants.
//
// The crash model (DESIGN.md §13):
//
//   - A Sync op is a durability barrier: every operation issued before
//     it is stable once it completes.
//   - Metadata ops (create/drop/extend) are applied in issue order up
//     to the crash point — page allocation is treated as ordered.
//   - Page writes since the last completed barrier form the open
//     window. The device may have persisted any per-page subset of
//     them; for each page, either no write landed (the pre-window
//     content survives) or some prefix of its writes did, in which
//     case the last write of that prefix is the surviving content.
//   - Individual page writes are atomic (no torn 8K pages).
//
// A crash state is therefore (crashIndex, per-page choice vector), and
// Enumerate walks that space: every pure prefix, targeted torn states
// around each barrier, seeded random samples, and — for small traces —
// the full cartesian product. Verify materialises each state onto a
// fresh in-memory image, runs recovery (core.Open), and asserts the
// standing invariants; see VerifyState. Failing states serialise to a
// self-contained repro bundle that replays byte-for-byte.
package torture

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/device"
)

// PageChoice selects which write to one page survived the crash out of
// the writes issued to it inside the open window: Choice 0 means none
// landed (the pre-window content survives), Choice j means the j-th
// window write to that page is the surviving content. A page with
// window writes but no PageChoice defaults to "all landed".
type PageChoice struct {
	Rel    device.OID
	Page   uint32
	Choice int
}

// State identifies one crash state: the trace prefix that was issued
// (ops[0:CrashIndex]) plus the per-page survival choices for writes in
// the open window at that point.
type State struct {
	CrashIndex int
	Choices    []PageChoice
}

func (st State) String() string {
	return fmt.Sprintf("crash@%d (%d page choices)", st.CrashIndex, len(st.Choices))
}

// FileExpect is one expected durable outcome recorded by a workload: a
// path, the exact content a committed transaction gave it, the commit
// time the transaction was assigned, and the recorded-trace length at
// the moment the commit was acknowledged. A crash at index ≥ AckIndex
// must preserve the version; a crash before it may lose the version
// entirely but must never surface it partially. Multiple expects may
// name one path (overwrite workloads): they are versions in CommitTime
// order.
type FileExpect struct {
	Path       string
	Content    []byte
	CommitTime int64
	AckIndex   int

	// MovedFrom, when non-empty, marks this expect as the outcome of a
	// committed rename: the file was created at MovedFrom (by the commit
	// described by FromCommitTime/FromAckIndex) and moved to Path by the
	// commit described by CommitTime/AckIndex. The invariant is
	// atomicity: once the rename is durable the content is byte-exact at
	// Path and MovedFrom does not exist; before that, the content is
	// visible at exactly one of the two paths — never both, never (after
	// the create is durable) neither, and never partially. A workload
	// recording a move expect must not also record a plain expect for
	// MovedFrom. Fields absent from old repro bundles gob-decode to zero
	// values, which read as "not a move".
	MovedFrom      string
	FromCommitTime int64
	FromAckIndex   int
}

// Bundle is a self-contained repro for one failing crash state: the
// recorded operation sequence, the crash state, and the workload's
// expectations. Replaying a bundle rebuilds the identical disk image
// byte-for-byte and re-runs the identical verification — no workload,
// scheduler, or timing involved.
type Bundle struct {
	Workload string
	Seed     int64
	Note     string
	Ops      []device.RecOp
	State    State
	Exps     []FileExpect
}

// WriteBundle serialises a bundle with encoding/gob.
func WriteBundle(path string, b *Bundle) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBundle deserialises a bundle written by WriteBundle.
func ReadBundle(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var b Bundle
	if err := gob.NewDecoder(f).Decode(&b); err != nil {
		return nil, err
	}
	return &b, nil
}

// Replay re-runs a repro bundle and returns the violation it
// reproduces (nil means the state now verifies clean — the bug the
// bundle captured is fixed).
func Replay(path string) error {
	b, err := ReadBundle(path)
	if err != nil {
		return fmt.Errorf("torture: reading bundle: %w", err)
	}
	return VerifyState(b.Ops, b.State, b.Exps)
}

// bundleDir resolves where repro bundles go: an explicit directory, the
// TORTURE_OUT environment variable, or the system temp directory.
func bundleDir(explicit string) string {
	if explicit != "" {
		return explicit
	}
	if d := os.Getenv("TORTURE_OUT"); d != "" {
		return d
	}
	return os.TempDir()
}

// bundlePath names a bundle file for one failing state.
func bundlePath(dir, workload string, seed int64, st State, n int) string {
	return filepath.Join(dir, fmt.Sprintf("torture-%s-seed%d-crash%d-%d.repro",
		workload, seed, st.CrashIndex, n))
}
