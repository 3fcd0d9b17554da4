package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rowenc"
)

// Wait-event sampling, pg_wait_sampling-style. Every blocking site in
// the engine (lock park, single-flight page load, frame latch, group
// commit, log force, backend I/O, background loops) publishes "what am
// I waiting on" to a per-goroutine slot for the duration of the wait; a
// background sampler walks the slots at a fixed wall-clock interval and
// accumulates (event, op, relation) counts into a bounded profile. The
// result answers "what is the server waiting on right now" the way
// pg_wait_sampling answers it for Postgres: by sampling, so the cost is
// paid by the sampler, not the waiters.
//
// Cost discipline mirrors spans: when no sampler is attached anywhere
// in the process, BeginWait is one atomic load and returns nil, so
// every instrumented site costs nothing. Publishing a wait while a
// sampler runs costs one goid lookup plus an atomic pointer store.
// Nothing here ever reads the virtual clock, so simulated benchmark
// digits are unaffected.

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

// waitState is what a waiting goroutine publishes: immutable once
// stored, swapped atomically so the sampler never sees a torn tag.
type waitState struct {
	event WaitEvent
	op    string
	rel   string
}

// WaitSlot is one goroutine's published wait state. Slots live in a
// process-global map keyed by goroutine id and are reclaimed by the
// sampler once idle long enough.
type WaitSlot struct {
	state     atomic.Pointer[waitState]
	idleSince atomic.Int64 // wall unix ns of last End; 0 while waiting
}

var (
	// waitGate counts attached samplers. Zero means BeginWait is a
	// single atomic load returning nil.
	waitGate  atomic.Int32
	waitSlots sync.Map // goid int64 -> *WaitSlot
)

// slotIdleReap is how long an idle slot survives before the sampler
// deletes it, bounding the slot map at roughly the number of goroutines
// that blocked recently.
const slotIdleReap = 10 * time.Second

func slotFor(id int64) *WaitSlot {
	if v, ok := waitSlots.Load(id); ok {
		return v.(*WaitSlot)
	}
	v, _ := waitSlots.LoadOrStore(id, &WaitSlot{})
	return v.(*WaitSlot)
}

// BeginWait publishes that the calling goroutine is blocked on event
// until the returned slot's End. Op is taken from the active span; rel
// is the explicit relation override (pass "" to use the span's). A nil
// return (no sampler attached) is safe to End.
func BeginWait(event WaitEvent, rel string) *WaitSlot {
	if waitGate.Load() == 0 {
		return nil
	}
	id := goid() // one stack walk serves both the span and the slot probe
	var op string
	if sp := activeOn(id); sp != nil {
		op = sp.Op
		if rel == "" {
			rel = sp.RelName()
		}
	}
	return beginWaitOn(id, event, op, rel)
}

// BeginWaitLoop publishes a wait for a background loop that has no
// span; loop names the actor ("bgwriter", "reaper", "checkpointer").
func BeginWaitLoop(event WaitEvent, loop string) *WaitSlot {
	if waitGate.Load() == 0 {
		return nil
	}
	return beginWait(event, loop, "")
}

func beginWait(event WaitEvent, op, rel string) *WaitSlot {
	return beginWaitOn(goid(), event, op, rel)
}

func beginWaitOn(id int64, event WaitEvent, op, rel string) *WaitSlot {
	s := slotFor(id)
	s.idleSince.Store(0)
	s.state.Store(&waitState{event: event, op: op, rel: rel})
	return s
}

// End marks the wait over. Safe on a nil slot.
func (s *WaitSlot) End() {
	if s == nil {
		return
	}
	s.state.Store(nil)
	s.idleSince.Store(time.Now().UnixNano())
}

// WaitProfileRow is one (event, op, relation) cell of a sampled
// profile.
type WaitProfileRow struct {
	Class   string `json:"class"`
	Event   string `json:"event"`
	Op      string `json:"op,omitempty"`
	Rel     string `json:"rel,omitempty"`
	Samples uint32 `json:"samples"`
}

// WaitProfile is a point-in-time copy of a sampler's accumulated
// counts, rows sorted by (class, event, op, rel).
type WaitProfile struct {
	IntervalNs int64            `json:"interval_ns"`
	Rounds     int64            `json:"rounds"`
	Rows       []WaitProfileRow `json:"rows,omitempty"`
}

type waitKey struct {
	event   WaitEvent
	op, rel string
}

// maxWaitKeys bounds the profile map; past it, new (op, rel) pairs fold
// into a per-event overflow cell so a hostile op mix cannot grow the
// profile without bound.
const maxWaitKeys = 512

// waitOverflowLabel marks counts folded into an event's overflow cell.
const waitOverflowLabel = "(other)"

// DefaultWaitSamplingInterval is the sampling period servers use unless
// configured otherwise: coarse enough to be invisible in profiles,
// fine enough that a 100ms lock convoy shows up with ~10 samples.
const DefaultWaitSamplingInterval = 10 * time.Millisecond

// WaitSampler periodically snapshots every published wait slot into a
// bounded profile. Counts saturate at MaxUint32 rather than wrapping,
// so a weeks-long profile degrades to "a lot", never to a small lie.
type WaitSampler struct {
	interval time.Duration
	reg      *Registry

	mu     sync.Mutex
	prof   map[waitKey]uint32
	rounds int64

	stop chan struct{}
	done chan struct{}
}

// NewWaitSampler returns a sampler at the given interval (0 means
// DefaultWaitSamplingInterval). reg, if non-nil, receives a
// "wait.<class>.<event>" counter family mirroring the per-event totals
// for /metrics. Call Start to begin sampling.
func NewWaitSampler(interval time.Duration, reg *Registry) *WaitSampler {
	if interval <= 0 {
		interval = DefaultWaitSamplingInterval
	}
	return &WaitSampler{
		interval: interval,
		reg:      reg,
		prof:     make(map[waitKey]uint32),
	}
}

// Start opens the gate (instrumented sites begin publishing) and runs
// the sampling loop until Stop.
func (s *WaitSampler) Start() {
	if s == nil || s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	waitGate.Add(1)
	go s.loop()
}

// Stop halts sampling and closes the gate. The accumulated profile
// remains readable.
func (s *WaitSampler) Stop() {
	if s == nil || s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop = nil
	waitGate.Add(-1)
}

func (s *WaitSampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.sampleOnce()
		}
	}
}

// sampleOnce walks every slot, accumulates non-idle states, and reaps
// slots idle past slotIdleReap.
func (s *WaitSampler) sampleOnce() {
	now := time.Now().UnixNano()
	type sampled struct{ st *waitState }
	var seen []sampled
	waitSlots.Range(func(k, v any) bool {
		slot := v.(*WaitSlot)
		if st := slot.state.Load(); st != nil {
			seen = append(seen, sampled{st})
		} else if idle := slot.idleSince.Load(); idle != 0 && now-idle > int64(slotIdleReap) {
			waitSlots.Delete(k)
		}
		return true
	})
	s.mu.Lock()
	s.rounds++
	var flightRows []WaitProfileRow
	for _, sm := range seen {
		k := waitKey{sm.st.event, sm.st.op, sm.st.rel}
		if _, ok := s.prof[k]; !ok && len(s.prof) >= maxWaitKeys {
			k = waitKey{sm.st.event, waitOverflowLabel, waitOverflowLabel}
		}
		if c := s.prof[k]; c < ^uint32(0) {
			s.prof[k] = c + 1
		}
		if s.reg != nil {
			s.reg.Counter(fmt.Sprintf("wait.%s.%s",
				sm.st.event.Class(), sm.st.event)).Inc()
		}
		// Activity-class waits (background loops at rest) are steady
		// state, not signal: filing them would emit one flight event per
		// round forever and churn the whole ring in seconds, evicting the
		// span history a crash dump exists to preserve.
		if sm.st.event.Class() != ClassActivity {
			flightRows = append(flightRows, WaitProfileRow{
				Class: string(sm.st.event.Class()), Event: sm.st.event.String(),
				Op: sm.st.op, Rel: sm.st.rel, Samples: 1,
			})
		}
	}
	s.mu.Unlock()
	if len(flightRows) > 0 {
		Flight().recordWaits(flightRows)
	}
}

// Snapshot copies the accumulated profile.
func (s *WaitSampler) Snapshot() WaitProfile {
	if s == nil {
		return WaitProfile{}
	}
	s.mu.Lock()
	p := WaitProfile{IntervalNs: int64(s.interval), Rounds: s.rounds}
	for k, v := range s.prof {
		p.Rows = append(p.Rows, WaitProfileRow{
			Class:   string(k.event.Class()),
			Event:   k.event.String(),
			Op:      k.op,
			Rel:     k.rel,
			Samples: v,
		})
	}
	s.mu.Unlock()
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
const waitProfileVersion = 1

// EncodeWaitProfile serializes a profile with the rowenc codec:
//
//	u32 version | i64 intervalNs | i64 rounds |
//	u32 nRows | (string class, string event, string op, string rel,
//	             u32 samples)*
func EncodeWaitProfile(p WaitProfile) []byte {
	w := rowenc.NewWriter(64 + len(p.Rows)*48)
	w.Uint32(waitProfileVersion)
	w.Int64(p.IntervalNs).Int64(p.Rounds)
	w.Uint32(uint32(len(p.Rows)))
	for _, r := range p.Rows {
		w.String(r.Class).String(r.Event).String(r.Op).String(r.Rel)
		w.Uint32(r.Samples)
	}
	return w.Done()
}

// DecodeWaitProfile parses an encoded profile, rejecting unknown
// versions loudly.
func DecodeWaitProfile(b []byte) (WaitProfile, error) {
	var p WaitProfile
	r := rowenc.NewReader(b)
	if v := r.Uint32(); r.Err() == nil && v != waitProfileVersion {
		return p, fmt.Errorf("obs: wait profile version %d (want %d)", v, waitProfileVersion)
	}
	p.IntervalNs = r.Int64()
	p.Rounds = r.Int64()
	n := int(r.Uint32())
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Rows = append(p.Rows, WaitProfileRow{
			Class:   r.String(),
			Event:   r.String(),
			Op:      r.String(),
			Rel:     r.String(),
			Samples: r.Uint32(),
		})
	}
	if err := r.Err(); err != nil {
		return p, err
	}
	return p, nil
}
