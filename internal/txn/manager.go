package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Errors returned by the transaction manager.
var (
	ErrTxDone     = errors.New("txn: transaction already committed or aborted")
	ErrNestedTx   = errors.New("txn: nested transactions are not supported")
	ErrNoSuchTx   = errors.New("txn: no such transaction")
	ErrReadOnlyTx = errors.New("txn: historical snapshots may not be written")
)

// commitCacheSize is the committed-XID cache's slot count (a power of
// two; XIDs map to slots by low bits).
const commitCacheSize = 8192

// commitEntry is one cached commit outcome: the XID and its commit
// time. Only durably final commits are cached — a slot is written
// either after the status log force succeeded or after the transaction
// has left the live set — so a hit can answer both StatusOf and
// CommitTime without any lock.
type commitEntry struct {
	xid XID
	t   int64
}

// liveTx is the manager's record of one in-progress transaction: its
// wall-clock start (for the inv_transactions age column — never the
// injected TimeSource, which may be a simulated clock) and a
// first-writer-wins annotation naming the relation the transaction
// touched. The note is an atomic pointer so annotating takes only the
// manager's read lock. oldest is the smallest XID the transaction's
// start snapshot treats as unfinished: its own, or that of an older
// transaction still running when it began.
type liveTx struct {
	startNs int64
	oldest  XID
	note    atomic.Pointer[string]
}

// Manager coordinates transactions: it hands out XIDs, tracks the live
// set, records outcomes in the status log, and owns the lock manager.
// The mutex is an RWMutex: visibility checks (StatusOf, snapshot
// construction, Horizon) take the read side, so MVCC reads do not
// contend with each other — only Begin and transaction end take it
// exclusively, and the hottest check of all, "did x commit?", is
// usually answered by the lock-free committed-XID cache.
type Manager struct {
	mu             sync.RWMutex
	log            *Log
	locks          *LockManager
	next           XID
	live           map[XID]*liveTx
	lastCommitTime int64

	commitCache                        [commitCacheSize]atomic.Pointer[commitEntry]
	statusCacheHits, statusCacheMisses atomic.Int64

	// TimeSource supplies commit timestamps (nanoseconds). It defaults
	// to wall-clock time; tests inject deterministic sources. Commit
	// times are forced monotone regardless.
	TimeSource func() int64

	// ForceData, when set, is invoked before the status log is forced
	// at commit: the storage layer hooks it to flush dirty data pages,
	// giving the no-overwrite manager durability without a WAL.
	ForceData func() error

	// CommitWindow, when positive, lets a batch leader hold its force
	// open this long while other live transactions exist outside the
	// batch, absorbing late committers into the same force. 0 (the
	// default) forces immediately — the right choice when syncs are
	// cheap or committers are rare; sync-bound deployments opt in.
	CommitWindow time.Duration

	// gc is the group-commit pipeline every Commit force goes through;
	// a solo committer leads a batch of one and performs exactly the
	// writes the old per-transaction path did, in the same order.
	gc    groupCommit
	gcObs atomic.Pointer[gcObs]

	forceNs atomic.Pointer[obs.Histogram] // full commit-force latency
}

// SetObs attaches a metrics registry: commits record their full force
// path (data flush + log force) in "txn.commit_force_ns", the
// group-commit pipeline records batch sizes, saved forces, and follower
// wait under "txn.group_commit.*", and the lock manager records
// contended-acquisition park time.
func (m *Manager) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.forceNs.Store(reg.Histogram("txn.commit_force_ns"))
	m.gcObs.Store(&gcObs{
		batchSize:   reg.Histogram("txn.group_commit.batch_size"),
		forcesSaved: reg.Counter("txn.group_commit.forces_saved"),
		leaderWait:  reg.Histogram("txn.group_commit.leader_wait_ns"),
		batches:     reg.Counter("txn.group_commit.batches"),
	})
	m.locks.SetObs(reg)
}

// NewManager returns a manager over an opened status log. Transactions
// that were in progress at a crash read as in-progress from the log but
// are not in the live set, so they are treated as aborted — recovery is
// complete the moment this constructor returns.
func NewManager(log *Log) *Manager {
	return &Manager{
		log:            log,
		locks:          NewLockManager(),
		next:           log.Reserved(),
		live:           make(map[XID]*liveTx),
		lastCommitTime: log.LastCommitTime(),
		TimeSource:     func() int64 { return time.Now().UnixNano() },
	}
}

// Locks exposes the lock manager.
func (m *Manager) Locks() *LockManager { return m.locks }

// cacheCommit records a durably committed XID in the lock-free cache.
// Callers must only pass outcomes that can no longer change.
func (m *Manager) cacheCommit(x XID, t int64) {
	m.commitCache[uint64(x)&(commitCacheSize-1)].Store(&commitEntry{xid: x, t: t})
}

// cachedCommit reports x's commit time if the cache knows x committed.
func (m *Manager) cachedCommit(x XID) (int64, bool) {
	e := m.commitCache[uint64(x)&(commitCacheSize-1)].Load()
	if e != nil && e.xid == x {
		return e.t, true
	}
	return 0, false
}

// StatusCacheStats reports committed-XID cache hits and misses — the
// contention observable for the visibility-check fast path.
func (m *Manager) StatusCacheStats() (hits, misses int64) {
	return m.statusCacheHits.Load(), m.statusCacheMisses.Load()
}

// Log exposes the status log (for tests and the vacuum cleaner).
func (m *Manager) Log() *Log { return m.log }

// Tx is one transaction. Operations on a Tx are not safe for fully
// concurrent use — the paper's client library allows "only one
// transaction active at any time" per application — but ending a
// transaction (Commit or Abort) is serialised internally, so an
// external abort (the wire server's idle-session reaper, shutdown) may
// race a regular end: exactly one wins, the other gets ErrTxDone.
type Tx struct {
	mgr  *Manager
	id   XID
	snap *Snapshot

	mu     sync.Mutex
	ending bool // an end (commit or abort) has been claimed
	done   bool // the end completed; locks are released
	onEnd  []func(committed bool)
}

// claimEnd atomically claims the right to end the transaction; the
// second caller loses and must treat the transaction as finished.
func (tx *Tx) claimEnd() bool {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.ending {
		return false
	}
	tx.ending = true
	return true
}

// Begin starts a transaction with a transaction-consistent snapshot.
func (m *Manager) Begin() (*Tx, error) {
	m.mu.Lock()
	id := m.next
	m.next++
	needReserve := id+xidReserveChunk/2 >= m.log.Reserved()
	running := make(map[XID]bool, len(m.live))
	oldest := id
	for x := range m.live {
		running[x] = true
		oldest = min(oldest, x)
	}
	m.live[id] = &liveTx{startNs: time.Now().UnixNano(), oldest: oldest}
	xmax := m.next
	m.mu.Unlock()

	if needReserve {
		if err := m.log.ReserveThrough(id); err != nil {
			// The transaction never existed as far as callers are
			// concerned, so it must not linger in the live set: a
			// leaked entry would pin Horizon() at this XID forever
			// (vacuum could never advance) and show up in
			// inv_transactions as an ageless ghost.
			m.mu.Lock()
			delete(m.live, id)
			m.mu.Unlock()
			return nil, err
		}
	}
	tx := &Tx{mgr: m, id: id}
	tx.snap = &Snapshot{mgr: m, self: id, xmax: xmax, running: running}
	return tx, nil
}

// ID reports the transaction's XID.
func (tx *Tx) ID() XID { return tx.id }

// Snapshot reports the transaction's consistent view.
func (tx *Tx) Snapshot() *Snapshot { return tx.snap }

// OnEnd registers a hook run after the transaction ends; committed
// reports the outcome. Hooks run in registration order.
func (tx *Tx) OnEnd(f func(committed bool)) {
	tx.mu.Lock()
	tx.onEnd = append(tx.onEnd, f)
	tx.mu.Unlock()
}

// Lock acquires tag in mode under strict 2PL for this transaction.
// An external end (the idle-session reaper, server shutdown) can race
// the acquisition: the pre-check below can read ending=false, the
// external abort then claims the end and runs ReleaseAll, and only
// afterwards does Acquire enqueue or grant — a lock nobody will ever
// release. The post-check closes that window: if the end was claimed
// while the lock was being granted, the grant is revoked.
func (tx *Tx) Lock(tag LockTag, mode LockMode) error {
	tx.mu.Lock()
	ended := tx.ending
	tx.mu.Unlock()
	if ended {
		return ErrTxDone
	}
	if err := tx.mgr.locks.Acquire(tx.id, tag, mode); err != nil {
		return err
	}
	tx.mu.Lock()
	ended = tx.ending
	tx.mu.Unlock()
	if ended {
		// The transaction's ReleaseAll may already have run and missed
		// this grant; releasing here is either the missing cleanup or a
		// harmless no-op racing the end's own ReleaseAll.
		tx.mgr.locks.ReleaseAll(tx.id)
		return ErrTxDone
	}
	return nil
}

// Commit makes the transaction's changes durable and visible through
// the group-commit pipeline: the committer takes a commit timestamp and
// enqueues; a batch leader forces dirty data pages once (via
// Manager.ForceData), publishes every member's commit record, and
// forces the status log once for the whole batch. A solo committer
// leads its own batch of one and performs exactly the old
// per-transaction sequence. If the batch force fails every member
// converges to abort, exactly as the single-committer path did.
func (tx *Tx) Commit() error {
	if !tx.claimEnd() {
		return ErrTxDone
	}
	m := tx.mgr
	// The registry histogram covers the whole force path (queue wait +
	// data flush + log force). The active span is charged inside
	// Log.Force itself for the leader — so forces outside commit (XID
	// reservation in Begin) are attributed too, and the leader's data
	// flush already charged its page writes as buffer writes — while a
	// follower charges its group-commit wait as commit-force time.
	h := m.forceNs.Load()
	var f0 time.Time
	if h != nil {
		f0 = time.Now()
	}
	m.mu.Lock()
	t := m.TimeSource()
	if t <= m.lastCommitTime {
		t = m.lastCommitTime + 1
	}
	m.lastCommitTime = t
	m.mu.Unlock()

	err := m.commit(tx.id, t)
	if h != nil {
		h.Observe(int64(time.Since(f0)))
	}
	if err != nil {
		// forceBatch already converged this transaction to abort in the
		// cached log; finish so it cannot linger in the live set pinning
		// the horizon. A data-flush failure reports the raw error (the
		// transaction aborted cleanly before any commit record existed);
		// a log-force failure names the converged outcome because the
		// durable state is ambiguous until the next successful force.
		tx.finish(false)
		var be *batchError
		if errors.As(err, &be) && be.dataPhase {
			return be.err
		}
		return fmt.Errorf("txn: commit force failed, transaction aborted: %w", err)
	}
	// The commit record is on stable storage: the outcome is final, so
	// it may enter the lock-free cache. Caching before the force could
	// leak the transient committed state a failed force converts to an
	// abort.
	m.cacheCommit(tx.id, t)
	tx.finish(true)
	return nil
}

// Abort rolls the transaction back. Because storage is no-overwrite,
// rollback writes nothing to data pages: the records it inserted are
// simply never visible.
func (tx *Tx) Abort() error {
	if !tx.claimEnd() {
		return ErrTxDone
	}
	tx.mgr.log.SetState(tx.id, StatusAborted, 0)
	tx.finish(false)
	return nil
}

func (tx *Tx) finish(committed bool) {
	m := tx.mgr
	tx.mu.Lock()
	tx.done = true
	hooks := tx.onEnd
	tx.onEnd = nil
	tx.mu.Unlock()
	m.mu.Lock()
	delete(m.live, tx.id)
	m.mu.Unlock()
	m.locks.ReleaseAll(tx.id)
	for _, f := range hooks {
		f(committed)
	}
}

// Done reports whether the transaction has ended.
func (tx *Tx) Done() bool {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return tx.done
}

// StatusOf reports the effective state of x: live transactions are
// in-progress; transactions the log never saw commit or abort are
// aborted (they died in a crash).
func (m *Manager) StatusOf(x XID) Status {
	if _, ok := m.cachedCommit(x); ok {
		m.statusCacheHits.Add(1)
		return StatusCommitted
	}
	m.statusCacheMisses.Add(1)
	m.mu.RLock()
	_, liveNow := m.live[x]
	m.mu.RUnlock()
	if liveNow {
		return StatusInProgress
	}
	s := m.log.State(x)
	if s == StatusInProgress {
		return StatusAborted
	}
	if s == StatusCommitted {
		// x is not live, so its end has completed and the logged state
		// can no longer change: safe to cache. (While a commit's force
		// is still in flight the transaction is live, so the transient
		// committed state a failed force rolls back never gets here.)
		m.cacheCommit(x, m.log.CommitTime(x))
	}
	return s
}

// CommitTime reports when x committed (0 if it did not).
func (m *Manager) CommitTime(x XID) int64 {
	if t, ok := m.cachedCommit(x); ok {
		return t
	}
	return m.log.CommitTime(x)
}

// LastCommitTime reports the most recent commit timestamp.
func (m *Manager) LastCommitTime() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.lastCommitTime
}

// Horizon reports the oldest XID that any live transaction might still
// care about: the smallest XID that some live transaction's start
// snapshot treats as unfinished, or the next XID to be assigned if none
// are live. That is not the smallest live XID: a transaction that began
// while an older one was running goes on not seeing the older one after
// it commits, and so goes on needing the records it deleted. Records
// deleted by transactions that committed below the horizon are
// invisible to every live transaction's snapshot, so the vacuum cleaner
// may collect them.
func (m *Manager) Horizon() XID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	h := m.next
	for _, lt := range m.live {
		h = min(h, lt.oldest)
	}
	return h
}

// Checkpoint persists the current horizon as the log's checkpoint XID
// and forces the control page: every transaction below the horizon is
// finished and its durable status already on the device, so the next
// recovery (OpenLog) reads only log pages from the horizon up —
// O(recently active), not O(history). The commit clock is read after
// the horizon, so it is at least the commit time of every XID below it.
func (m *Manager) Checkpoint() error {
	h := m.Horizon()
	return m.log.Checkpoint(h, m.LastCommitTime())
}

// ActiveTxn is one live transaction as reported by ActiveTxns: its
// XID, wall-clock start time, and the relation annotation (empty until
// the transaction first touches a data relation).
type ActiveTxn struct {
	XID         XID
	StartUnixNs int64
	Note        string
}

// ActiveTxns snapshots the live transaction set under the read lock.
// Start times are wall-clock (never the injected TimeSource), so ages
// computed from them are meaningful even under a simulated clock.
func (m *Manager) ActiveTxns() []ActiveTxn {
	m.mu.RLock()
	out := make([]ActiveTxn, 0, len(m.live))
	for x, lt := range m.live {
		a := ActiveTxn{XID: x, StartUnixNs: lt.startNs}
		if p := lt.note.Load(); p != nil {
			a.Note = *p
		}
		out = append(out, a)
	}
	m.mu.RUnlock()
	return out
}

// AnnotateTx attaches a human-readable note (conventionally the first
// relation the transaction touched) to a live transaction. The first
// writer wins; later calls and calls for ended transactions are no-ops.
func (m *Manager) AnnotateTx(x XID, note string) {
	if note == "" {
		return
	}
	m.mu.RLock()
	lt := m.live[x]
	m.mu.RUnlock()
	if lt != nil {
		lt.note.CompareAndSwap(nil, &note)
	}
}

// AsOf returns a read-only snapshot of the database as it was at time t:
// "All transactions that had committed as of that time will be visible,
// so the file system state will be exactly the same as it was at that
// moment."
func (m *Manager) AsOf(t int64) *Snapshot {
	return &Snapshot{mgr: m, asOf: t}
}

// CurrentSnapshot returns a read-only snapshot of the latest committed
// state, outside any transaction.
func (m *Manager) CurrentSnapshot() *Snapshot {
	m.mu.RLock()
	running := make(map[XID]bool, len(m.live))
	for x := range m.live {
		running[x] = true
	}
	xmax := m.next
	m.mu.RUnlock()
	return &Snapshot{mgr: m, xmax: xmax, running: running}
}

// CurrentSnapshotFor returns a snapshot seeing the latest committed
// state plus self's own uncommitted changes. Under strict two-phase
// locking, mutations locate the row versions they supersede through
// such a *current read* — a transaction-start snapshot could miss a
// competitor's commit that happened between this transaction's start
// and its lock acquisition, producing write skew.
func (m *Manager) CurrentSnapshotFor(self XID) *Snapshot {
	m.mu.RLock()
	running := make(map[XID]bool, len(m.live))
	for x := range m.live {
		if x != self {
			running[x] = true
		}
	}
	xmax := m.next
	m.mu.RUnlock()
	return &Snapshot{mgr: m, self: self, xmax: xmax, running: running}
}

// Snapshot is a transaction-consistent view of the database, either the
// view of a running transaction or a historical ("time travel") view.
type Snapshot struct {
	mgr     *Manager
	self    XID // 0 when read-only or historical
	asOf    int64
	xmax    XID
	running map[XID]bool
}

// Historical reports whether this is a time-travel snapshot.
func (s *Snapshot) Historical() bool { return s.asOf != 0 }

// AsOfTime reports the time-travel instant (0 for current views).
func (s *Snapshot) AsOfTime() int64 { return s.asOf }

// xidVisible reports whether the effects of x are included in s.
func (s *Snapshot) xidVisible(x XID) bool {
	if x == InvalidXID {
		return false
	}
	if s.asOf != 0 {
		if s.mgr.StatusOf(x) != StatusCommitted {
			return false
		}
		return s.mgr.CommitTime(x) <= s.asOf
	}
	if x == s.self {
		return true
	}
	if x >= s.xmax || s.running[x] {
		return false
	}
	return s.mgr.StatusOf(x) == StatusCommitted
}

// SeesAllThrough reports whether every transaction numbered x or lower
// had ended when s was taken, so that each of them that committed is
// visible to s. A time-travel view never says so: what it sees depends
// on commit times, not on transaction numbers.
func (s *Snapshot) SeesAllThrough(x XID) bool {
	if s.asOf != 0 || x >= s.xmax {
		return false
	}
	for r := range s.running {
		if r <= x {
			return false
		}
	}
	return true
}

// CanSee decides record visibility from its xmin/xmax stamps: the
// inserting transaction must be visible and the deleting transaction
// (if any) must not be.
func (s *Snapshot) CanSee(xmin, xmax XID) bool {
	if !s.xidVisible(xmin) {
		return false
	}
	if xmax == InvalidXID {
		return true
	}
	return !s.xidVisible(xmax)
}
