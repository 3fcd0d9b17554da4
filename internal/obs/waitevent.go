package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rowenc"
)

// Wait-event counting. Every blocking site in the engine (lock park,
// single-flight page load, frame latch, group commit, log force,
// backend I/O, background loops) brackets its blocked interval with
// BeginWait and End. BeginWait finds the bounded (event, op, relation)
// cell and raises its waiting gauge; End adds one wait and the elapsed
// nanoseconds to the cell, lowers the gauge, and returns the elapsed
// time, so the site charges that same interval to its request span and
// latency histograms instead of timing it a second time. The profile
// answers both "what has the server been waiting on" (waits, wait_ns)
// and "what is blocked right now" (waiting) from one measurement.
//
// The cells are process-global, like the flight ring: a wait site deep
// in the buffer pool or lock manager has no handle on its database, and
// a profile dumped from a panic handler must need no plumbing. A wait
// costs a read-locked map lookup, two clock reads and six atomic adds,
// and allocates nothing once its cell exists. Nothing here reads the
// virtual clock, so simulated benchmark digits are unaffected.

// WaitEvent identifies a blocking site. The taxonomy is deliberately
// coarse — one event per structurally distinct wait, not per call site —
// so profiles stay readable and the encoding stays stable.
type WaitEvent uint8

const (
	// WaitNone is the zero event; it never appears in a profile.
	WaitNone WaitEvent = iota
	// WaitLockAcquire is a transaction parked in the lock manager.
	WaitLockAcquire
	// WaitBufLoad is a goroutine waiting on another goroutine's
	// in-flight single-flight load of the same page.
	WaitBufLoad
	// WaitFrameLatch is contention on a buffer frame's page latch.
	WaitFrameLatch
	// WaitGroupCommit is a committer parked waiting for its group
	// commit leader to force the batch.
	WaitGroupCommit
	// WaitCommitWindow is a group-commit leader holding the force open
	// for followers to join.
	WaitCommitWindow
	// WaitLogForce is a log force (status/time page writes + sync).
	WaitLogForce
	// WaitBackendRead is a page read from the backing device.
	WaitBackendRead
	// WaitBackendWrite is a page write to the backing device.
	WaitBackendWrite
	// WaitBGWriterIdle is the background writer sleeping between
	// trickle rounds.
	WaitBGWriterIdle
	// WaitReaperIdle is the idle-session reaper between sweeps.
	WaitReaperIdle
	// WaitCheckpointIdle is the checkpointer between checkpoints.
	WaitCheckpointIdle

	numWaitEvents
)

// WaitClass groups events the way pg_stat_activity groups wait_event_type:
// LWLock for short structural latches, Lock for transaction locks, IO
// for device transfers, IPC for cross-goroutine handoff, Activity for
// background loops at rest.
type WaitClass string

const (
	ClassLock     WaitClass = "Lock"
	ClassLWLock   WaitClass = "LWLock"
	ClassBufferIO WaitClass = "BufferIO"
	ClassIO       WaitClass = "IO"
	ClassIPC      WaitClass = "IPC"
	ClassTimeout  WaitClass = "Timeout"
	ClassActivity WaitClass = "Activity"
)

var waitNames = [numWaitEvents]string{
	WaitNone:           "none",
	WaitLockAcquire:    "lock_acquire",
	WaitBufLoad:        "buf_load",
	WaitFrameLatch:     "frame_latch",
	WaitGroupCommit:    "group_commit",
	WaitCommitWindow:   "commit_window",
	WaitLogForce:       "log_force",
	WaitBackendRead:    "backend_read",
	WaitBackendWrite:   "backend_write",
	WaitBGWriterIdle:   "bgwriter_idle",
	WaitReaperIdle:     "reaper_idle",
	WaitCheckpointIdle: "checkpoint_idle",
}

var waitClasses = [numWaitEvents]WaitClass{
	WaitNone:           ClassActivity,
	WaitLockAcquire:    ClassLock,
	WaitBufLoad:        ClassBufferIO,
	WaitFrameLatch:     ClassLWLock,
	WaitGroupCommit:    ClassIPC,
	WaitCommitWindow:   ClassTimeout,
	WaitLogForce:       ClassIO,
	WaitBackendRead:    ClassIO,
	WaitBackendWrite:   ClassIO,
	WaitBGWriterIdle:   ClassActivity,
	WaitReaperIdle:     ClassActivity,
	WaitCheckpointIdle: ClassActivity,
}

// String names the event ("lock_acquire").
func (e WaitEvent) String() string {
	if e < numWaitEvents {
		return waitNames[e]
	}
	return fmt.Sprintf("wait%d", uint8(e))
}

// Class reports the event's wait class.
func (e WaitEvent) Class() WaitClass {
	if e < numWaitEvents {
		return waitClasses[e]
	}
	return ClassActivity
}

// waitKey names one profile cell.
type waitKey struct {
	event   WaitEvent
	op, rel string
}

// waitCell accumulates one (event, op, rel) cell.
type waitCell struct {
	event   WaitEvent
	waits   atomic.Uint64
	ns      atomic.Int64
	waiting atomic.Int32
}

// maxWaitKeys bounds the profile map; past it, new (op, rel) pairs fold
// into a per-event overflow cell so a hostile op mix cannot grow the
// profile without bound.
const maxWaitKeys = 512

// waitOverflowLabel marks waits folded into an event's overflow cell.
const waitOverflowLabel = "(other)"

// DefaultWaitSamplingInterval is kept so harnesses that still set
// core.Options.WaitSampling compile; waits are counted, never sampled,
// and the value has no effect.
const DefaultWaitSamplingInterval = 10 * time.Millisecond

var (
	// waitMu guards the cell map only: it is held to find or create a
	// cell, never across a wait.
	waitMu    sync.RWMutex
	waitCells = make(map[waitKey]*waitCell)

	// waitTotals are the per-event sums across cells, published into
	// each database's registry as wait.<class>.<event>[.ns].
	waitTotals [numWaitEvents]struct{ n, ns Counter }
)

// cellFor finds or creates k's cell. Only creation takes the write
// lock: once the map is full, waits on unseen pairs find their
// event's overflow cell under the read lock.
func cellFor(k waitKey) *waitCell {
	other := waitKey{k.event, waitOverflowLabel, waitOverflowLabel}
	waitMu.RLock()
	c := waitCells[k]
	if c == nil && len(waitCells) >= maxWaitKeys {
		c = waitCells[other]
	}
	waitMu.RUnlock()
	if c != nil {
		return c
	}
	waitMu.Lock()
	defer waitMu.Unlock()
	if c = waitCells[k]; c != nil {
		return c
	}
	if len(waitCells) >= maxWaitKeys {
		if c = waitCells[other]; c != nil {
			return c
		}
		k = other
	}
	c = &waitCell{event: k.event}
	waitCells[k] = c
	return c
}

// Wait is an open blocked interval, returned by BeginWait. The zero
// Wait is safe to End and reports 0.
type Wait struct {
	c  *waitCell
	t0 time.Time
}

// BeginWait opens a wait on event for the request sp is serving (nil
// for none). Op is sp's; rel overrides sp's relation when non-empty.
func BeginWait(event WaitEvent, sp *Span, rel string) Wait {
	var op string
	if sp != nil {
		op = sp.Op
		if rel == "" {
			rel = sp.RelName()
		}
	}
	return beginWait(event, op, rel)
}

// BeginWaitLoop opens a wait for a background loop that has no span;
// loop names the actor ("bgwriter", "reaper", "checkpointer").
func BeginWaitLoop(event WaitEvent, loop string) Wait {
	return beginWait(event, loop, "")
}

func beginWait(event WaitEvent, op, rel string) Wait {
	c := cellFor(waitKey{event, op, rel})
	c.waiting.Add(1)
	return Wait{c: c, t0: time.Now()}
}

// End closes the wait: one more wait and its elapsed nanoseconds are
// added to the cell and the event's totals, and the elapsed
// nanoseconds are returned for the caller's span and histograms.
func (w Wait) End() int64 {
	if w.c == nil {
		return 0
	}
	d := int64(time.Since(w.t0))
	w.c.waits.Add(1)
	w.c.ns.Add(d)
	w.c.waiting.Add(-1)
	t := &waitTotals[w.c.event]
	t.n.Inc()
	t.ns.Add(d)
	return d
}

// PublishWaitCounters registers every event's process-wide totals in
// reg: wait.<class>.<event> counts waits, wait.<class>.<event>.ns sums
// their nanoseconds. All events are published up front, so the set of
// names does not depend on which waits have happened.
func PublishWaitCounters(reg *Registry) {
	for e := WaitNone + 1; e < numWaitEvents; e++ {
		name := fmt.Sprintf("wait.%s.%s", e.Class(), e)
		reg.PublishCounter(name, &waitTotals[e].n)
		reg.PublishCounter(name+".ns", &waitTotals[e].ns)
	}
}

// WaitProfileRow is one (event, op, relation) cell of the profile.
type WaitProfileRow struct {
	Class   string `json:"class"`
	Event   string `json:"event"`
	Op      string `json:"op,omitempty"`
	Rel     string `json:"rel,omitempty"`
	Waits   uint64 `json:"waits"`
	WaitNs  int64  `json:"wait_ns"`
	Waiting uint32 `json:"waiting"`
}

// WaitProfile is a point-in-time copy of the process's wait cells,
// rows sorted by (class, event, op, rel).
type WaitProfile struct {
	Rows []WaitProfileRow `json:"rows,omitempty"`
}

// SnapshotWaits copies the process-wide wait profile.
func SnapshotWaits() WaitProfile {
	var p WaitProfile
	waitMu.RLock()
	for k, c := range waitCells {
		p.Rows = append(p.Rows, WaitProfileRow{
			Class:   string(k.event.Class()),
			Event:   k.event.String(),
			Op:      k.op,
			Rel:     k.rel,
			Waits:   c.waits.Load(),
			WaitNs:  c.ns.Load(),
			Waiting: uint32(c.waiting.Load()),
		})
	}
	waitMu.RUnlock()
	sortWaitRows(p.Rows)
	return p
}

func sortWaitRows(rows []WaitProfileRow) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Event != b.Event {
			return a.Event < b.Event
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Rel < b.Rel
	})
}

// waitProfileVersion versions the wire encoding of a WaitProfile.
const waitProfileVersion = 2

// minWaitRowBytes is the smallest encoded row: four empty strings
// (a u32 length each), u64 waits, i64 wait_ns, u32 waiting.
const minWaitRowBytes = 4*4 + 8 + 8 + 4

// EncodeWaitProfile serializes a profile with the rowenc codec:
//
//	u32 version | u32 nRows | (string class, string event, string op,
//	                           string rel, u64 waits, i64 wait_ns,
//	                           u32 waiting)*
func EncodeWaitProfile(p WaitProfile) []byte {
	w := rowenc.NewWriter(8 + len(p.Rows)*64)
	w.Uint32(waitProfileVersion)
	w.Uint32(uint32(len(p.Rows)))
	for _, r := range p.Rows {
		w.String(r.Class).String(r.Event).String(r.Op).String(r.Rel)
		w.Uint64(r.Waits).Int64(r.WaitNs).Uint32(r.Waiting)
	}
	return w.Done()
}

// DecodeWaitProfile parses an encoded profile, rejecting other
// versions loudly and row counts the payload cannot hold.
func DecodeWaitProfile(b []byte) (WaitProfile, error) {
	var p WaitProfile
	r := rowenc.NewReader(b)
	if v := r.Uint32(); r.Err() == nil && v != waitProfileVersion {
		return p, fmt.Errorf("obs: wait profile version %d (want %d)", v, waitProfileVersion)
	}
	n := r.Count(minWaitRowBytes)
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Rows = append(p.Rows, WaitProfileRow{
			Class:   r.String(),
			Event:   r.String(),
			Op:      r.String(),
			Rel:     r.String(),
			Waits:   r.Uint64(),
			WaitNs:  r.Int64(),
			Waiting: r.Uint32(),
		})
	}
	if err := r.Err(); err != nil {
		return p, err
	}
	return p, nil
}
