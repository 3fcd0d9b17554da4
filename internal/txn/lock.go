package txn

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/obs"
)

// ErrDeadlock is returned to one participant of a lock cycle; its
// transaction should abort and may retry.
var ErrDeadlock = errors.New("txn: deadlock detected")

// ErrLockAborted is returned from a blocked Acquire whose transaction
// was ended from outside while it waited — the idle-session reaper or
// server shutdown aborted it, so the wait can never be satisfied.
var ErrLockAborted = errors.New("txn: lock wait aborted: transaction ended externally")

// LockMode is a lock strength.
type LockMode int

// Lock strengths: readers share, writers exclude.
const (
	LockShared LockMode = iota
	LockExclusive
)

// String renders the strength for catalogs and logs.
func (m LockMode) String() string {
	switch m {
	case LockShared:
		return "shared"
	case LockExclusive:
		return "exclusive"
	}
	return "unknown"
}

// LockSpace partitions the lock namespace so different kinds of
// resources cannot collide.
type LockSpace uint8

// Lock spaces used across the system.
const (
	SpaceRelation LockSpace = iota // whole-relation locks (file contents)
	SpaceName                      // (directory, filename) locks
	SpaceMeta                      // catalog and metadata locks
)

// String renders the space for catalogs and logs.
func (s LockSpace) String() string {
	switch s {
	case SpaceRelation:
		return "relation"
	case SpaceName:
		return "name"
	case SpaceMeta:
		return "meta"
	}
	return "unknown"
}

// LockTag names one lockable resource.
type LockTag struct {
	Space LockSpace
	Rel   device.OID
	Key   uint64
}

type lockWaiter struct {
	xid   XID
	mode  LockMode
	ready chan error
}

type lockState struct {
	holders map[XID]LockMode
	queue   []*lockWaiter
}

// waitEntry remembers where a blocked transaction is queued so an
// external abort can withdraw it. A transaction waits on at most one
// lock at a time (its thread is blocked in Acquire).
type waitEntry struct {
	tag LockTag
	w   *lockWaiter
}

// LockManager implements strict two-phase locking with deadlock
// detection over the waits-for graph. Locks are held until ReleaseAll
// at transaction end [GRAY76].
type LockManager struct {
	mu       sync.Mutex
	locks    map[LockTag]*lockState
	held     map[XID]map[LockTag]LockMode
	waitsFor map[XID]map[XID]bool
	waiting  map[XID]*waitEntry

	waits atomic.Int64 // acquisitions that had to queue (contention)

	waitNs atomic.Pointer[obs.Histogram] // queued-acquisition park time
}

// SetObs attaches a metrics registry; contended acquisitions record
// their park time in "txn.lock_wait_ns".
func (m *LockManager) SetObs(reg *obs.Registry) {
	if reg != nil {
		m.waitNs.Store(reg.Histogram("txn.lock_wait_ns"))
	}
}

// Waits reports how many lock acquisitions blocked behind a
// conflicting holder — the 2PL contention observable.
func (m *LockManager) Waits() int64 { return m.waits.Load() }

// NewLockManager returns an empty lock manager.
func NewLockManager() *LockManager {
	return &LockManager{
		locks:    make(map[LockTag]*lockState),
		held:     make(map[XID]map[LockTag]LockMode),
		waitsFor: make(map[XID]map[XID]bool),
		waiting:  make(map[XID]*waitEntry),
	}
}

func compatible(a, b LockMode) bool { return a == LockShared && b == LockShared }

// grantableLocked reports whether xid can take tag in mode given
// current holders. Caller holds m.mu.
func (m *LockManager) grantableLocked(ls *lockState, xid XID, mode LockMode) bool {
	for holder, hmode := range ls.holders {
		if holder == xid {
			continue // self-conflict handled by upgrade logic
		}
		if !compatible(mode, hmode) && !compatible(hmode, mode) {
			return false
		}
		if mode == LockExclusive || hmode == LockExclusive {
			return false
		}
	}
	return true
}

func (m *LockManager) recordLocked(xid XID, tag LockTag, mode LockMode, ls *lockState) {
	if cur, ok := ls.holders[xid]; !ok || mode > cur {
		ls.holders[xid] = mode
	}
	h := m.held[xid]
	if h == nil {
		h = make(map[LockTag]LockMode)
		m.held[xid] = h
	}
	if cur, ok := h[tag]; !ok || mode > cur {
		h[tag] = mode
	}
}

// wouldDeadlockLocked reports whether adding edges waiter→holders
// creates a cycle back to waiter. Caller holds m.mu.
func (m *LockManager) wouldDeadlockLocked(waiter XID, blockers map[XID]bool) bool {
	seen := map[XID]bool{}
	var dfs func(x XID) bool
	dfs = func(x XID) bool {
		if x == waiter {
			return true
		}
		if seen[x] {
			return false
		}
		seen[x] = true
		for next := range m.waitsFor[x] {
			if dfs(next) {
				return true
			}
		}
		return false
	}
	for b := range blockers {
		if dfs(b) {
			return true
		}
	}
	return false
}

// Acquire takes tag in mode for xid, blocking behind conflicting
// holders. It returns ErrDeadlock if waiting would close a cycle.
// Re-acquiring a lock already held at equal or stronger mode is a
// no-op; holding Shared and asking for Exclusive is an upgrade.
func (m *LockManager) Acquire(xid XID, tag LockTag, mode LockMode) error {
	m.mu.Lock()
	if cur, ok := m.held[xid][tag]; ok && cur >= mode {
		m.mu.Unlock()
		return nil
	}
	ls := m.locks[tag]
	if ls == nil {
		ls = &lockState{holders: make(map[XID]LockMode)}
		m.locks[tag] = ls
	}
	if m.grantableLocked(ls, xid, mode) {
		m.recordLocked(xid, tag, mode, ls)
		m.mu.Unlock()
		return nil
	}
	// Must wait. Compute blockers and check for deadlock first.
	blockers := make(map[XID]bool)
	for holder, hmode := range ls.holders {
		if holder == xid {
			continue
		}
		if mode == LockExclusive || hmode == LockExclusive {
			blockers[holder] = true
		}
	}
	if m.wouldDeadlockLocked(xid, blockers) {
		m.mu.Unlock()
		return ErrDeadlock
	}
	w := &lockWaiter{xid: xid, mode: mode, ready: make(chan error, 1)}
	ls.queue = append(ls.queue, w)
	m.waitsFor[xid] = blockers
	m.waiting[xid] = &waitEntry{tag: tag, w: w}
	m.waits.Add(1)
	m.mu.Unlock()

	h, sp := m.waitNs.Load(), obs.Active()
	var t0 time.Time
	if h != nil || sp != nil {
		t0 = time.Now()
	}
	// Publish the park as a wait event. The relation comes from the
	// lock tag, not the span: at OpenTx the lock is taken before the
	// span learns which relation it is touching, so during the park the
	// tag is the only attribution available. Data relations are named
	// "inv<oid>" (core.DataRelName's format).
	var rel string
	if tag.Space == SpaceRelation {
		rel = "inv" + strconv.FormatUint(uint64(tag.Rel), 10)
	}
	wev := obs.BeginWait(obs.WaitLockAcquire, rel)
	err := <-w.ready
	wev.End()
	if h != nil || sp != nil {
		d := int64(time.Since(t0))
		h.Observe(d)
		sp.AddLockWait(d)
	}
	return err
}

// ReleaseAll drops every lock xid holds and wakes newly grantable
// waiters. Called at commit or abort (strict 2PL). If xid is itself
// blocked in Acquire — an externally aborted transaction — the wait is
// withdrawn and the waiter unblocked with ErrLockAborted, so a reaped
// session's handler cannot sit in a lock queue forever (or worse, be
// granted a lock after its transaction ended).
func (m *LockManager) ReleaseAll(xid XID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.waitsFor, xid)
	if we, ok := m.waiting[xid]; ok {
		delete(m.waiting, xid)
		if ls := m.locks[we.tag]; ls != nil {
			for i, qw := range ls.queue {
				if qw == we.w {
					ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
					break
				}
			}
			m.wakeLocked(we.tag, ls)
			if len(ls.holders) == 0 && len(ls.queue) == 0 {
				delete(m.locks, we.tag)
			}
		}
		we.w.ready <- ErrLockAborted
	}
	tags := m.held[xid]
	delete(m.held, xid)
	for tag := range tags {
		ls := m.locks[tag]
		if ls == nil {
			continue
		}
		delete(ls.holders, xid)
		m.wakeLocked(tag, ls)
		if len(ls.holders) == 0 && len(ls.queue) == 0 {
			delete(m.locks, tag)
		}
	}
}

// wakeLocked grants queued waiters in FIFO order while they remain
// compatible, then refreshes the waits-for edges of everyone still
// queued (their old edges may point at released holders, and stale
// edges would let later cycles go undetected). Caller holds m.mu.
func (m *LockManager) wakeLocked(tag LockTag, ls *lockState) {
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		if !m.grantableLocked(ls, w.xid, w.mode) {
			break
		}
		ls.queue = ls.queue[1:]
		delete(m.waitsFor, w.xid)
		delete(m.waiting, w.xid)
		m.recordLocked(w.xid, tag, w.mode, ls)
		w.ready <- nil
	}
	for _, w := range ls.queue {
		blockers := make(map[XID]bool)
		for holder, hmode := range ls.holders {
			if holder == w.xid {
				continue
			}
			if w.mode == LockExclusive || hmode == LockExclusive {
				blockers[holder] = true
			}
		}
		m.waitsFor[w.xid] = blockers
	}
}

// LockDump is one row of the lock table as reported by DumpLocks:
// either a granted lock (one row per tag+holder, Granted=true, Waiters
// counting the tag's queue) or a queued request (Granted=false, Mode
// the requested strength).
type LockDump struct {
	Tag     LockTag
	Txn     XID
	Mode    LockMode
	Granted bool
	Waiters int
}

// DumpLocks snapshots the whole lock table under one short critical
// section: holders first, then queued waiters, per tag. The result is
// a consistent instant of the table — though by the time the caller
// reads it the table may have moved on.
func (m *LockManager) DumpLocks() []LockDump {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]LockDump, 0, len(m.locks))
	for tag, ls := range m.locks {
		for holder, mode := range ls.holders {
			out = append(out, LockDump{Tag: tag, Txn: holder, Mode: mode, Granted: true, Waiters: len(ls.queue)})
		}
		for _, w := range ls.queue {
			out = append(out, LockDump{Tag: tag, Txn: w.xid, Mode: w.mode, Granted: false, Waiters: len(ls.queue)})
		}
	}
	return out
}

// HeldBy reports the locks xid currently holds (for tests and the
// monitor).
func (m *LockManager) HeldBy(xid XID) map[LockTag]LockMode {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[LockTag]LockMode, len(m.held[xid]))
	for t, md := range m.held[xid] {
		out[t] = md
	}
	return out
}
