package torture

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/device"
)

// The standing invariants a freshly recovered database must satisfy on
// EVERY legal crash state:
//
//  1. Recovery succeeds. Reopening the image is the entire recovery
//     path; it may repair, it may not fail.
//  2. Every acknowledged commit is durable: a version whose commit was
//     acked at trace index a is byte-exact readable on any crash at
//     index ≥ a, and its Stat size agrees.
//  3. No torn commits, acked or not: a version that was not (yet)
//     acknowledged may be present in full or absent entirely — the
//     group-commit leader may have forced a follower's record before
//     the follower observed the ack — but a file whose content matches
//     no committed version is a corruption.
//  4. Time travel holds: each durable version is readable as-of its
//     commit time; the path does not exist as-of the instant before
//     its first version; nothing is visible as-of time 1 (bootstrap) —
//     the observable symptom of a committed transaction with a zeroed
//     commit time.
//  5. The structural scrub is clean: B-tree invariants, namespace
//     cross-links, chunk records, self-identifying pages, no
//     committed-without-commit-time XIDs left in the log.
//  6. Recovery is idempotent: crashing the recovered instance without
//     new work and recovering again yields the same durable state.
//
// Scope: workloads in this package never vacuum and stay below B-tree
// split-reversal sizes, so every on-disk structure only grows during a
// run — which is what makes "reopen and read" a complete check.

// VerifyState materialises one crash state onto a fresh image, runs
// recovery, and checks every invariant above. It returns nil for a
// consistent state, or an error naming the first violation.
func VerifyState(ops []device.RecOp, st State, exps []FileExpect) error {
	img := Materialize(ops, st)
	sw := device.NewSwitch()
	sw.Register(img)
	if err := verifyOpen(sw, st.CrashIndex, exps, true); err != nil {
		return err
	}
	// Idempotence: a second recovery over the same image (now possibly
	// repaired by the first) must converge to the same durable state.
	if err := verifyOpen(sw, st.CrashIndex, exps, false); err != nil {
		return fmt.Errorf("second recovery: %w", err)
	}
	return nil
}

// verifyOpen runs one recovery over the switch and checks the
// invariants at the given crash index. withScrub additionally runs the
// full structural scrub (the first recovery scrubs; the idempotence
// pass only re-checks durability).
func verifyOpen(sw *device.Switch, crashIndex int, exps []FileExpect, withScrub bool) error {
	db, err := core.Open(sw, core.Options{})
	if err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	defer db.Crash()

	sess := db.NewSession("torture")
	var plain []FileExpect
	for _, e := range exps {
		if e.MovedFrom != "" {
			if err := verifyMove(sess, e, crashIndex); err != nil {
				return err
			}
			continue
		}
		plain = append(plain, e)
	}
	for _, g := range groupExpects(plain) {
		if err := verifyPath(sess, g, crashIndex); err != nil {
			return err
		}
	}

	if withScrub {
		rep, err := db.Scrub()
		if err != nil {
			return fmt.Errorf("scrub errored: %w", err)
		}
		if !rep.OK() {
			msg := rep.Summary()
			for _, c := range rep.Media.Corrupt {
				msg += "; " + c.String()
			}
			for _, p := range rep.Problems {
				msg += "; " + p
			}
			return fmt.Errorf("scrub not clean: %s", msg)
		}
	}
	return nil
}

// groupExpects orders expectations into per-path version histories,
// each sorted by commit time, with the groups themselves in first-seen
// order.
func groupExpects(exps []FileExpect) [][]FileExpect {
	byPath := make(map[string][]FileExpect)
	var order []string
	for _, e := range exps {
		if _, ok := byPath[e.Path]; !ok {
			order = append(order, e.Path)
		}
		byPath[e.Path] = append(byPath[e.Path], e)
	}
	out := make([][]FileExpect, 0, len(order))
	for _, p := range order {
		vers := byPath[p]
		sort.Slice(vers, func(i, j int) bool { return vers[i].CommitTime < vers[j].CommitTime })
		out = append(out, vers)
	}
	return out
}

// verifyPath checks one path's version history against the recovered
// state at the given crash index.
func verifyPath(sess *core.Session, vers []FileExpect, crashIndex int) error {
	path := vers[0].Path

	// The newest version whose commit was acknowledged before the crash.
	acked := -1
	for vi, e := range vers {
		if e.AckIndex >= 0 && e.AckIndex <= crashIndex {
			acked = vi
		}
	}

	data, rerr := sess.ReadFile(path)
	if acked >= 0 {
		// Invariant 2: acked content durable, byte-exact or newer.
		if rerr != nil {
			return fmt.Errorf("%s: acked commit lost: %w", path, rerr)
		}
		if vi := matchVersion(vers, data, acked); vi < 0 {
			return fmt.Errorf("%s: torn state: %d bytes on disk match no version ≥ the last acked (len(acked)=%d)",
				path, len(data), len(vers[acked].Content))
		}
		attr, serr := sess.Stat(path)
		if serr != nil {
			return fmt.Errorf("%s: readable but unstattable: %w", path, serr)
		}
		if attr.Size != int64(len(data)) {
			return fmt.Errorf("%s: stat size %d, content %d bytes", path, attr.Size, len(data))
		}
		// Invariant 4: each acked version readable as of its commit time.
		for vi := 0; vi <= acked; vi++ {
			e := vers[vi]
			old, err := sess.ReadFileAsOf(path, e.CommitTime)
			if err != nil {
				return fmt.Errorf("%s: version as of t=%d unreadable: %w", path, e.CommitTime, err)
			}
			if !bytes.Equal(old, e.Content) {
				return fmt.Errorf("%s: version as of t=%d has %d bytes, want %d",
					path, e.CommitTime, len(old), len(e.Content))
			}
		}
		if _, err := sess.StatAsOf(path, vers[0].CommitTime-1); !errors.Is(err, core.ErrNotExist) {
			return fmt.Errorf("%s: exists before its first commit (t=%d): err=%v",
				path, vers[0].CommitTime-1, err)
		}
	} else {
		// Invariant 3: an unacked commit is all-or-nothing.
		switch {
		case rerr == nil:
			if vi := matchVersion(vers, data, 0); vi < 0 {
				return fmt.Errorf("%s: partial unacked commit visible: %d bytes match no version",
					path, len(data))
			}
		case !errors.Is(rerr, core.ErrNotExist):
			return fmt.Errorf("%s: unexpected read error: %w", path, rerr)
		}
	}

	// Invariant 4, zero-commit-time guard: nothing the workload created
	// may be visible as of the bootstrap instant.
	if _, err := sess.StatAsOf(path, 1); !errors.Is(err, core.ErrNotExist) {
		return fmt.Errorf("%s: visible as of time 1 — committed transaction with no commit time (err=%v)",
			path, err)
	}
	return nil
}

// verifyMove checks one committed-rename expectation: a file created at
// e.MovedFrom and renamed to e.Path. The rename deletes one naming row
// and inserts another under one commit record, so the invariant is
// atomicity across the pair at every crash state.
func verifyMove(sess *core.Session, e FileExpect, crashIndex int) error {
	renameAcked := e.AckIndex >= 0 && e.AckIndex <= crashIndex
	createAcked := e.FromAckIndex >= 0 && e.FromAckIndex <= crashIndex

	newData, newErr := sess.ReadFile(e.Path)
	if newErr != nil && !errors.Is(newErr, core.ErrNotExist) {
		return fmt.Errorf("%s: unexpected read error: %w", e.Path, newErr)
	}
	oldData, oldErr := sess.ReadFile(e.MovedFrom)
	if oldErr != nil && !errors.Is(oldErr, core.ErrNotExist) {
		return fmt.Errorf("%s: unexpected read error: %w", e.MovedFrom, oldErr)
	}
	// Whichever path is visible must carry the full content — a partial
	// file at either end is a torn commit regardless of ack state.
	if newErr == nil && !bytes.Equal(newData, e.Content) {
		return fmt.Errorf("%s: torn content after rename: %d bytes, want %d",
			e.Path, len(newData), len(e.Content))
	}
	if oldErr == nil && !bytes.Equal(oldData, e.Content) {
		return fmt.Errorf("%s: torn content at rename source: %d bytes, want %d",
			e.MovedFrom, len(oldData), len(e.Content))
	}

	switch {
	case renameAcked:
		// The acked rename is durable: content at the destination only.
		if newErr != nil {
			return fmt.Errorf("%s: acked rename lost (created at %s): %w", e.Path, e.MovedFrom, newErr)
		}
		if oldErr == nil {
			return fmt.Errorf("rename not atomic: %s still visible alongside %s", e.MovedFrom, e.Path)
		}
		// Time travel across the move: the file is readable at the source
		// as of the create and at the destination as of the rename, and
		// the destination name did not exist the instant before the
		// rename committed.
		if old, err := sess.ReadFileAsOf(e.MovedFrom, e.FromCommitTime); err != nil {
			return fmt.Errorf("%s: pre-rename version as of t=%d unreadable: %w", e.MovedFrom, e.FromCommitTime, err)
		} else if !bytes.Equal(old, e.Content) {
			return fmt.Errorf("%s: pre-rename version as of t=%d has %d bytes, want %d",
				e.MovedFrom, e.FromCommitTime, len(old), len(e.Content))
		}
		if now, err := sess.ReadFileAsOf(e.Path, e.CommitTime); err != nil {
			return fmt.Errorf("%s: renamed version as of t=%d unreadable: %w", e.Path, e.CommitTime, err)
		} else if !bytes.Equal(now, e.Content) {
			return fmt.Errorf("%s: renamed version as of t=%d has %d bytes, want %d",
				e.Path, e.CommitTime, len(now), len(e.Content))
		}
		if _, err := sess.StatAsOf(e.Path, e.CommitTime-1); !errors.Is(err, core.ErrNotExist) {
			return fmt.Errorf("%s: exists before the rename committed (t=%d): err=%v",
				e.Path, e.CommitTime-1, err)
		}
	case createAcked:
		// Create durable, rename maybe: the content lives at exactly one
		// of the two names. Both visible is a half-applied move (the
		// destination's insert landed without the source's delete);
		// neither visible loses an acked commit.
		if oldErr == nil && newErr == nil {
			return fmt.Errorf("rename not atomic: %s and %s both visible", e.MovedFrom, e.Path)
		}
		if oldErr != nil && newErr != nil {
			return fmt.Errorf("%s: acked create lost (rename to %s unacked): %w", e.MovedFrom, e.Path, oldErr)
		}
	default:
		// Nothing acked: each commit is still all-or-nothing, so at most
		// one name is visible (the torn-content checks above already
		// rejected partial states).
		if oldErr == nil && newErr == nil {
			return fmt.Errorf("rename not atomic: %s and %s both visible (neither commit acked)", e.MovedFrom, e.Path)
		}
	}

	// Zero-commit-time guard for both names.
	for _, p := range []string{e.MovedFrom, e.Path} {
		if _, err := sess.StatAsOf(p, 1); !errors.Is(err, core.ErrNotExist) {
			return fmt.Errorf("%s: visible as of time 1 — committed transaction with no commit time (err=%v)", p, err)
		}
	}
	return nil
}

// matchVersion reports the index of the first version ≥ from whose
// content equals data, or -1.
func matchVersion(vers []FileExpect, data []byte, from int) int {
	for vi := from; vi < len(vers); vi++ {
		if bytes.Equal(data, vers[vi].Content) {
			return vi
		}
	}
	return -1
}

// CrashDuringRecovery materialises a crash state, injects a one-shot
// fault on the n-th device operation of the given class during
// recovery itself (crashing the recovering process), heals the device,
// and requires the second recovery to converge: it must succeed and
// satisfy every invariant. tripped reports whether the fault actually
// fired (recovery may complete before the n-th operation).
func CrashDuringRecovery(ops []device.RecOp, st State, exps []FileExpect,
	faultOp device.FaultOp, nth uint64) (tripped bool, err error) {
	img := Materialize(ops, st)
	f := device.NewFaulty(img, 1).FailNth(faultOp, nth, nil)
	sw := device.NewSwitch()
	sw.Register(f)

	db, openErr := core.Open(sw, core.Options{})
	tripped = f.Trips() > 0
	if openErr == nil {
		// Recovery finished before the fault point (or the fault hit a
		// non-fatal path); crash it and recover again below.
		db.Crash()
	} else if !tripped {
		return false, fmt.Errorf("recovery failed without an injected fault: %w", openErr)
	}
	f.Clear().Heal()
	if err := verifyOpen(sw, st.CrashIndex, exps, true); err != nil {
		return tripped, fmt.Errorf("recovery after mid-recovery crash (op %s #%d): %w", faultOp, nth, err)
	}
	return tripped, nil
}
