package txn

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// commitWindowTick is the poll granularity of the leader's commit
// window: the leader re-checks for newly queued committers this often
// while the window is open.
const commitWindowTick = 100 * time.Microsecond

// groupCommit batches concurrent commit forces behind a single leader.
//
// The single-committer force path (data flush, status publication, log
// force, sync) is correct but pays one full force per transaction; under
// concurrent writers every committer serializes on the log mutex and the
// device sync. Group commit keeps the protocol and amortizes the price:
// committers enqueue their (XID, commit time) and the first to arrive
// while no force is in flight becomes the leader. The leader closes the
// batch, performs ONE data flush + status publication + log force + sync
// on behalf of every member, and delivers the shared outcome; committers
// arriving while a force is in flight queue for the next batch, and the
// finishing leader promotes one of them so batches chain without a gap.
//
// Ordering is the load-bearing part. A commit record may only reach the
// device after that transaction's data pages are durable, and Log.Force
// writes every dirty log page — including records published by
// transactions outside the closing batch. Publication therefore happens
// inside the leader, after its data flush and before its log force:
// a member's status is never in the cached log pages while any force
// that did not cover its data pages can run. (The failed single-committer
// convergence rule is preserved too: a failed batch marks every member
// aborted in the cached log, and each member finishes as an abort.)
type groupCommit struct {
	mu       sync.Mutex
	inFlight bool         // a leader is forcing; arrivals queue
	pending  []*commitReq // next batch, claimed whole by the next leader
}

// commitReq is one committer's seat in a batch: its commit record plus
// the channel its outcome (or a leadership grant) arrives on.
type commitReq struct {
	xid XID
	t   int64
	out chan commitOutcome
}

// commitOutcome is what a queued committer receives: either the batch
// verdict (err, possibly nil) or a promotion to leader of the batch it
// is sitting in.
type commitOutcome struct {
	promote bool
	err     error
}

// gcObs is the group-commit instrument set, resolved once in SetObs.
type gcObs struct {
	batchSize   *obs.Histogram // members per forced batch
	forcesSaved *obs.Counter   // forces avoided vs one-per-committer
	leaderWait  *obs.Histogram // ns a follower waited for its leader
	batches     *obs.Counter   // batches forced
}

// commit enqueues one committer and blocks until its batch is forced.
// Exactly one goroutine leads at a time; the caller either leads its
// own batch, is promoted to lead by the previous leader, or waits as a
// follower. Returns the batch outcome. A follower charges its wait to
// its request span as commit-force time: the leader's span is charged
// inside Log.Force and the buffer writebacks, but a follower's request
// really did spend that wall time on durability.
func (m *Manager) commit(xid XID, t int64) error {
	g := &m.gc
	req := &commitReq{xid: xid, t: t, out: make(chan commitOutcome, 1)}
	g.mu.Lock()
	g.pending = append(g.pending, req)
	if !g.inFlight {
		g.inFlight = true
		g.mu.Unlock()
		return m.lead(req)
	}
	g.mu.Unlock()
	sp := obs.Active()
	w := obs.BeginWait(obs.WaitGroupCommit, sp, "")
	res := <-req.out
	d := w.End()
	if res.promote {
		return m.lead(req)
	}
	sp.AddCommitForce(d)
	if o := m.gcObs.Load(); o != nil {
		o.leaderWait.Observe(d)
	}
	return res.err
}

// lead claims the whole pending queue as one batch, forces it, and
// hands the pipeline to a queued successor (if any) before waking the
// batch. The caller's own request is guaranteed to be in the claimed
// batch: requests enter pending before leadership is decided, and a
// promoted leader was still pending when promoted.
func (m *Manager) lead(own *commitReq) error {
	g := &m.gc
	g.mu.Lock()
	batch := g.pending
	g.pending = nil
	g.mu.Unlock()

	// Commit window (opt-in): concurrent committers arrive in phased
	// cohorts — whoever is mid-write when a force starts can only make
	// the batch after it, so steady state alternates a small batch and a
	// large one and the amortization stalls at half the forces. With a
	// window, a leader that knows more live transactions exist than its
	// batch covers holds the force briefly and absorbs late arrivals into
	// this batch. Absorption is safe exactly because it happens before
	// ForceData: an absorbed member's data pages are covered by this
	// batch's flush. Live read-only transactions may never commit, so the
	// window is bounded and default-off (sync-bound deployments opt in).
	if w := m.CommitWindow; w > 0 {
		deadline := time.Now().Add(w)
		wev := obs.BeginWait(obs.WaitCommitWindow, obs.Active(), "")
		for {
			m.mu.RLock()
			live := len(m.live)
			m.mu.RUnlock()
			if live <= len(batch) || !time.Now().Before(deadline) {
				break
			}
			time.Sleep(commitWindowTick)
			g.mu.Lock()
			batch = append(batch, g.pending...)
			g.pending = nil
			g.mu.Unlock()
		}
		wev.End()
	}

	err := m.forceBatch(batch)
	obs.Flight().RecordLifecycle("group_commit", "", 0, int64(len(batch)))

	g.mu.Lock()
	if len(g.pending) > 0 {
		// Promote a queued committer so the next batch starts without
		// waiting for any follower to wake; inFlight stays true.
		g.pending[0].out <- commitOutcome{promote: true}
	} else {
		g.inFlight = false
	}
	g.mu.Unlock()

	if o := m.gcObs.Load(); o != nil {
		o.batches.Inc()
		o.batchSize.Observe(int64(len(batch)))
		o.forcesSaved.Add(int64(len(batch) - 1))
	}
	for _, r := range batch {
		if r != own {
			r.out <- commitOutcome{err: err}
		}
	}
	return err
}

// forceBatch makes one batch durable: one data flush, then every
// member's commit record published into the cached log pages, then one
// log force (which syncs). On any failure every member converges to
// abort in the cached log — exactly the single-committer rule — and the
// shared error is returned; errPhaseData distinguishes a data-flush
// failure (reported raw, as the old path did) from a log-force failure
// (wrapped with the aborted-outcome message).
func (m *Manager) forceBatch(batch []*commitReq) error {
	if m.ForceData != nil {
		if err := m.ForceData(); err != nil {
			for _, r := range batch {
				m.log.SetState(r.xid, StatusAborted, 0)
			}
			return &batchError{err: err, dataPhase: true}
		}
	}
	for _, r := range batch {
		m.log.SetState(r.xid, StatusCommitted, r.t)
	}
	if err := m.log.Force(); err != nil {
		// The batch's records may or may not have reached stable
		// storage before the force died, so the durable outcome is
		// ambiguous. Converge on abort: the cached log says aborted
		// (re-forced on the next successful Force). If the process dies
		// before another force, recovery may instead see some members
		// committed — each such member is internally consistent because
		// the whole batch's data pages were already forced.
		for _, r := range batch {
			m.log.SetState(r.xid, StatusAborted, 0)
		}
		return &batchError{err: err}
	}
	return nil
}

// batchError carries a batch failure plus which phase failed, so each
// member's Commit can shape its error exactly like the single-committer
// path did.
type batchError struct {
	err       error
	dataPhase bool
}

func (e *batchError) Error() string { return e.err.Error() }
func (e *batchError) Unwrap() error { return e.err }
