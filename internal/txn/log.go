package txn

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/obs"
)

// Reserved relation OIDs for the transaction logs. These relations are
// written through (forced) at commit; they are the only state recovery
// consults, which is why recovery is "essentially instantaneous".
const (
	StatusLogRel device.OID = 1
	TimeLogRel   device.OID = 2
)

const (
	xidsPerStatusPage = (device.PageSize - 16) * 4 // 2 bits each after header
	xidsPerTimePage   = device.PageSize / 8
)

// Log is the transaction status file plus the commit-time file. Pages
// are cached in memory and written through to the device on Force, so a
// crash can lose at most the statuses that were never forced — exactly
// the transactions that must be rolled back anyway.
//
// Page 0 of the status relation is a control page:
//
//	0..7   magic
//	8..11  reservedXID: all XIDs below this may have been handed out
//	12..15 checkpointXID: every XID below this has its final status
//	       durably on the device (see Checkpoint)
//	16..19 namespaceShards: written only by earlier versions, which
//	       could hash-partition the namespace; a value above one names
//	       a layout this version refuses to open (core.ErrShardedVolume)
//	20..27 checkpointTime: the latest commit time when the checkpoint
//	       was taken, so every XID below checkpointXID committed at or
//	       before it; 0 on volumes checkpointed by earlier versions
//
// A page slot may be nil: pages wholly below the checkpoint are not
// read at open (recovery stays O(recent), not O(history)) and are
// faulted in lazily on the first State/CommitTime that needs them.
// Only reads ever touch the lazy range — statuses are written only for
// live transactions, which are all at or above any checkpoint — so a
// nil slot is never written into.
type Log struct {
	mu       sync.Mutex
	dev      device.Manager
	status   [][]byte // cached status pages, index 0 = control page
	times    [][]byte
	dirtyS   map[int]bool
	dirtyT   map[int]bool
	reserved XID
	// durable is the highest reserved value a successful force has
	// written: reserved runs ahead of it while a reservation force is in
	// flight or after one failed.
	durable XID
	ckpt    XID
	// lastCommit is the latest commit time this log has seen: the
	// checkpoint's recorded time, raised by every commit time in the
	// window [ckpt, reserved) read at open.
	lastCommit int64

	lazyLoads int64 // pages faulted in below the checkpoint (tests/metrics)
	forces    int64 // successful full forces
	repairs   int64 // zero-commit-time commits converted to aborts at open
}

const logMagic = 0x1993_0426_494e_5646 // "INVF", April 1993

// xidReserveChunk is how many XIDs are reserved per control-page force.
const xidReserveChunk = 4096

// OpenLog opens (or initialises) the transaction logs on dev. The
// status and time relations are created if missing. Pages covering
// XIDs at or above the persisted checkpoint are read eagerly — they
// are the ones recovery and visibility checks will consult — while
// older pages load on demand.
func OpenLog(dev device.Manager) (*Log, error) {
	l := &Log{
		dev:    dev,
		dirtyS: make(map[int]bool),
		dirtyT: make(map[int]bool),
	}
	if err := dev.Create(StatusLogRel); err != nil {
		return nil, err
	}
	if err := dev.Create(TimeLogRel); err != nil {
		return nil, err
	}
	n, err := dev.NPages(StatusLogRel)
	if err != nil {
		return nil, err
	}
	nt, err := dev.NPages(TimeLogRel)
	if err != nil {
		return nil, err
	}
	l.status = make([][]byte, n)
	l.times = make([][]byte, nt)
	if n == 0 {
		// Fresh database: create the control page, mark bootstrap
		// committed.
		ctrl := make([]byte, device.PageSize)
		binary.LittleEndian.PutUint64(ctrl[0:], logMagic)
		l.status = append(l.status, ctrl)
		l.dirtyS[0] = true
		l.reserved = BootstrapXID + 1
		l.setReserved(l.reserved)
		l.setStatus(BootstrapXID, StatusCommitted)
		l.setCommitTime(BootstrapXID, 1)
		if err := l.Force(); err != nil {
			return nil, err
		}
		l.durable = l.reserved
		return l, nil
	}
	if err := l.readPage(StatusLogRel, l.status, 0); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(l.status[0][0:]) != logMagic {
		return nil, fmt.Errorf("txn: status log corrupt (bad magic)")
	}
	l.reserved = XID(binary.LittleEndian.Uint32(l.status[0][8:]))
	l.durable = l.reserved
	l.ckpt = XID(binary.LittleEndian.Uint32(l.status[0][12:]))
	l.lastCommit = int64(binary.LittleEndian.Uint64(l.status[0][20:]))
	// Eager window: everything the checkpoint does not cover. With no
	// checkpoint ever taken this is every page — the pre-checkpoint
	// behaviour, byte for byte.
	firstS, _, _ := statusLoc(l.ckpt)
	firstT, _ := timeLoc(l.ckpt)
	for p := firstS; p < len(l.status); p++ {
		if err := l.readPage(StatusLogRel, l.status, p); err != nil {
			return nil, err
		}
	}
	for p := firstT; p < len(l.times); p++ {
		if err := l.readPage(TimeLogRel, l.times, p); err != nil {
			return nil, err
		}
	}
	if err := l.repairZeroTimes(); err != nil {
		return nil, err
	}
	return l, nil
}

// repairZeroTimes converts committed transactions with no commit time
// to aborted, and raises lastCommit to the latest commit time it reads.
// The force path writes status pages before time pages and only then
// syncs, so a crash inside the unsynced window can leave a
// commit record durable while its commit time is not. Such a
// transaction was never acknowledged — Commit returns only after the
// sync — so aborting it is always safe, and leaving it committed would
// corrupt time travel: with CommitTime 0, the historical visibility
// check `CommitTime(x) <= asOf` holds for every instant, making the
// transaction's files visible at times before they were created.
//
// The scan covers [checkpoint, reserved): every XID below the
// checkpoint has its durably-final status (with its time forced by the
// same successful sync), and no XID at or above reserved was ever
// handed out. The pages involved are exactly the eagerly loaded window.
// The repair is idempotent — it only moves committed→aborted on a state
// recovery would otherwise misread — so a second crash during the
// repair force just repeats it.
func (l *Log) repairZeroTimes() error {
	lo := l.ckpt
	if lo <= BootstrapXID {
		lo = BootstrapXID + 1 // bootstrap always commits with time 1
	}
	for x := lo; x < l.reserved; x++ {
		pi, off, shift := statusLoc(x)
		if pi >= len(l.status) || l.status[pi] == nil {
			continue
		}
		if Status((l.status[pi][off]>>shift)&3) != StatusCommitted {
			continue
		}
		ti, toff := timeLoc(x)
		if ti < len(l.times) && l.times[ti] != nil {
			if t := int64(binary.LittleEndian.Uint64(l.times[ti][toff:])); t != 0 {
				l.lastCommit = max(l.lastCommit, t)
				continue
			}
		}
		l.setStatus(x, StatusAborted)
		l.repairs++
	}
	if l.repairs > 0 {
		return l.Force()
	}
	return nil
}

// CheckZeroTimes reports any committed transaction in the recovery
// window that has no commit time — the torn-force state repairZeroTimes
// exists to heal. On a healthy (or freshly recovered) log it returns
// nothing; the scrubber calls it so operators can detect the state on a
// live database too.
func (l *Log) CheckZeroTimes() []XID {
	l.mu.Lock()
	defer l.mu.Unlock()
	var bad []XID
	lo := l.ckpt
	if lo <= BootstrapXID {
		lo = BootstrapXID + 1
	}
	for x := lo; x < l.reserved; x++ {
		pi, off, shift := statusLoc(x)
		if pi >= len(l.status) || l.status[pi] == nil {
			continue
		}
		if Status((l.status[pi][off]>>shift)&3) != StatusCommitted {
			continue
		}
		ti, toff := timeLoc(x)
		if ti < len(l.times) && l.times[ti] != nil &&
			binary.LittleEndian.Uint64(l.times[ti][toff:]) != 0 {
			continue
		}
		bad = append(bad, x)
	}
	return bad
}

// readPage fills one cache slot from the device (no-op if loaded).
func (l *Log) readPage(rel device.OID, pages [][]byte, pi int) error {
	if pages[pi] != nil {
		return nil
	}
	buf := make([]byte, device.PageSize)
	if err := l.dev.ReadPage(rel, uint32(pi), buf); err != nil {
		return err
	}
	pages[pi] = buf
	return nil
}

// lazyPage returns the page, faulting it in from the device if it sits
// in the lazy (below-checkpoint) range. Caller holds l.mu.
func (l *Log) lazyPage(rel device.OID, pages [][]byte, pi int) ([]byte, error) {
	if pages[pi] == nil {
		if err := l.readPage(rel, pages, pi); err != nil {
			return nil, err
		}
		l.lazyLoads++
	}
	return pages[pi], nil
}

func (l *Log) setReserved(x XID) {
	binary.LittleEndian.PutUint32(l.status[0][8:], uint32(x))
	l.dirtyS[0] = true
}

// Reserved reports the XID ceiling persisted by the control page; every
// XID ever handed out is below it.
func (l *Log) Reserved() XID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// ReserveThrough raises the persisted XID ceiling if needed, forcing
// the control page. Begin calls this in chunks so most transaction
// starts do no I/O.
//
// It returns only once a ceiling above x is durable. A ceiling another
// caller has raised but not yet forced (or failed to force) does not
// count: a transaction whose XID lies above the ceiling recovery reads
// is outside the window repairZeroTimes scans, so a torn commit force
// could leave it committed with no commit time.
func (l *Log) ReserveThrough(x XID) error {
	l.mu.Lock()
	if x < l.durable {
		l.mu.Unlock()
		return nil
	}
	if x >= l.reserved {
		l.reserved = x + xidReserveChunk
		l.setReserved(l.reserved)
	}
	r := l.reserved
	l.mu.Unlock()
	if err := l.Force(); err != nil {
		return err
	}
	l.mu.Lock()
	l.durable = max(l.durable, r)
	l.mu.Unlock()
	return nil
}

// Checkpoint records that every XID below x has its durably-final
// status on the device, and that none of them committed after t, then
// forces the control page (and any other dirty log pages). The next
// OpenLog reads only pages from x on, bounding recovery work by the
// recently active window instead of the whole transaction history, and
// starts its commit clock at t or later. The checkpoint never
// regresses.
//
// Safety: callers pass a horizon — a bound below which no transaction
// is live. Every committed XID below the horizon had its commit record
// forced (with sync) before its Commit returned, so the on-device
// image of any still-dirty status page already contains those bits;
// transactions that never durably committed read as aborted from a
// stale page, which is exactly recovery's rule for them.
func (l *Log) Checkpoint(x XID, t int64) error {
	l.mu.Lock()
	if x <= l.ckpt {
		l.mu.Unlock()
		return nil
	}
	l.ckpt = x
	l.lastCommit = max(l.lastCommit, t)
	binary.LittleEndian.PutUint32(l.status[0][12:], uint32(x))
	binary.LittleEndian.PutUint64(l.status[0][20:], uint64(l.lastCommit))
	l.dirtyS[0] = true
	l.mu.Unlock()
	return l.Force()
}

// CheckpointXID reports the persisted checkpoint (0 if none was ever
// taken).
func (l *Log) CheckpointXID() XID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckpt
}

// NamespaceShards reads the namespace shard count an earlier version
// persisted in the control page. 0 means the field was never written.
func (l *Log) NamespaceShards() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return binary.LittleEndian.Uint32(l.status[0][16:])
}

// LastCommitTime reports the latest commit time this log knows was
// used: the one recorded at the last checkpoint, or a later one read
// from the recovery window at open. A manager's commit clock starts
// above it, so a wall clock set back across a restart cannot stamp a
// new commit before an old one.
func (l *Log) LastCommitTime() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastCommit
}

// LazyLoads reports how many log pages were faulted in below the
// checkpoint since open — the recovery work the checkpoint deferred.
func (l *Log) LazyLoads() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lazyLoads
}

// LoadedPages reports how many status/time pages are resident, and how
// many exist in total — OpenLog after a checkpoint loads fewer than it
// would have.
func (l *Log) LoadedPages() (loaded, total int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range l.status {
		if p != nil {
			loaded++
		}
	}
	for _, p := range l.times {
		if p != nil {
			loaded++
		}
	}
	return loaded, len(l.status) + len(l.times)
}

// Forces reports how many full forces have succeeded.
func (l *Log) Forces() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forces
}

// statusLoc maps an XID to (page index, byte offset, bit shift) in the
// status relation. Page 0 is the control page, so statuses start on
// page 1; the first 16 bytes of each status page are reserved.
func statusLoc(x XID) (pageIdx int, byteOff int, shift uint) {
	i := uint64(x)
	pageIdx = 1 + int(i/uint64(xidsPerStatusPage))
	rem := int(i % uint64(xidsPerStatusPage))
	byteOff = 16 + rem/4
	shift = uint((rem % 4) * 2)
	return
}

func timeLoc(x XID) (pageIdx, byteOff int) {
	i := uint64(x)
	return int(i / uint64(xidsPerTimePage)), int(i%uint64(xidsPerTimePage)) * 8
}

// ensureStatusPage grows the cached status relation through pageIdx.
func (l *Log) ensureStatusPage(pageIdx int) {
	for len(l.status) <= pageIdx {
		l.status = append(l.status, make([]byte, device.PageSize))
		l.dirtyS[len(l.status)-1] = true
	}
}

func (l *Log) ensureTimePage(pageIdx int) {
	for len(l.times) <= pageIdx {
		l.times = append(l.times, make([]byte, device.PageSize))
		l.dirtyT[len(l.times)-1] = true
	}
}

// setStatus records the 2-bit state of x. Caller holds l.mu or is in
// bootstrap. Statuses are only ever set for XIDs at or above every
// checkpoint (live transactions), so the page is never a lazy slot.
func (l *Log) setStatus(x XID, s Status) {
	pi, off, shift := statusLoc(x)
	l.ensureStatusPage(pi)
	b := l.status[pi][off]
	b &^= 3 << shift
	b |= byte(s&3) << shift
	l.status[pi][off] = b
	l.dirtyS[pi] = true
}

func (l *Log) setCommitTime(x XID, t int64) {
	pi, off := timeLoc(x)
	l.ensureTimePage(pi)
	binary.LittleEndian.PutUint64(l.times[pi][off:], uint64(t))
	l.dirtyT[pi] = true
}

// SetState records the state of x (and its commit time when s is
// StatusCommitted) in the cached log pages. Call Force to make it
// stable.
func (l *Log) SetState(x XID, s Status, commitTime int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.setStatus(x, s)
	if s == StatusCommitted {
		l.setCommitTime(x, commitTime)
	}
}

// State reads the recorded state of x. A page below the checkpoint is
// faulted in on first use; if that read fails the state is reported
// in-progress for this call only (nothing is cached), so a healed
// device answers correctly on the next call — the same transient-error
// posture data-page reads already have, where the heap fetch itself
// fails loudly before visibility is ever consulted.
func (l *Log) State(x XID) Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	pi, off, shift := statusLoc(x)
	if pi >= len(l.status) {
		return StatusInProgress
	}
	pg, err := l.lazyPage(StatusLogRel, l.status, pi)
	if err != nil {
		return StatusInProgress
	}
	return Status((pg[off] >> shift) & 3)
}

// CommitTime reads the recorded commit time of x (0 if none, or if a
// lazy page read failed — see State).
func (l *Log) CommitTime(x XID) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	pi, off := timeLoc(x)
	if pi >= len(l.times) {
		return 0
	}
	pg, err := l.lazyPage(TimeLogRel, l.times, pi)
	if err != nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(pg[off:]))
}

// Force writes every dirty log page through to the device. This is the
// only forced write a commit requires beyond the data pages themselves.
// The active request span is charged here rather than at the call
// sites, so forces outside commit (XID-ceiling reservation during
// Begin) show up in per-request attribution too.
func (l *Log) Force() error {
	// Forces are device-bound (a sync barrier each), so the wait's
	// clock reads and the flight-recorder entry per force are noise;
	// the always-on timeline of forces is what makes a post-crash
	// bundle explain a stalled commit.
	sp := obs.Active()
	w := obs.BeginWait(obs.WaitLogForce, sp, "")
	err := l.force()
	d := w.End()
	sp.AddCommitForce(d)
	outcome := ""
	if err != nil {
		outcome = "error: " + err.Error()
	}
	obs.Flight().RecordLifecycle("log_force", outcome, d, 1)
	return err
}

// force writes the dirty pages and syncs the device. Dirty bits are
// cleared only after the WHOLE force — including the sync barrier —
// has succeeded: a page that was written but never synced is not
// durable, and clearing its bit early would let the next force skip it
// forever, silently breaking the clean-implies-durable protocol the
// buffer pool already honors. l.mu is held across write+sync, so no
// new dirty bit can appear between the writes and the clear.
func (l *Log) force() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.forcePages(StatusLogRel, l.status, l.dirtyS); err != nil {
		return err
	}
	if err := l.forcePages(TimeLogRel, l.times, l.dirtyT); err != nil {
		return err
	}
	if err := l.dev.Sync(); err != nil {
		return err
	}
	for pi := range l.dirtyS {
		delete(l.dirtyS, pi)
	}
	for pi := range l.dirtyT {
		delete(l.dirtyT, pi)
	}
	l.forces++
	return nil
}

// forcePages writes rel's dirty pages, leaving the dirty set intact for
// the caller to clear after the sync barrier.
func (l *Log) forcePages(rel device.OID, pages [][]byte, dirty map[int]bool) error {
	n, err := l.dev.NPages(rel)
	if err != nil {
		return err
	}
	for int(n) < len(pages) {
		if _, err := l.dev.Extend(rel); err != nil {
			return err
		}
		n++
	}
	for pi := range dirty {
		if err := l.dev.WritePage(rel, uint32(pi), pages[pi]); err != nil {
			return err
		}
	}
	return nil
}
