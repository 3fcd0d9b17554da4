package device

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/obs"
)

// FaultOp names a device operation class that Faulty can inject
// failures into.
type FaultOp uint8

const (
	FaultRead FaultOp = iota
	FaultWrite
	FaultExtend
	FaultSync
	nFaultOps
)

func (op FaultOp) String() string {
	switch op {
	case FaultRead:
		return "read"
	case FaultWrite:
		return "write"
	case FaultExtend:
		return "extend"
	case FaultSync:
		return "sync"
	}
	return fmt.Sprintf("faultop(%d)", op)
}

// Errors injected by Faulty. Injected errors wrap these, so tests match
// with errors.Is regardless of the op/rel/page detail in the message.
var (
	ErrInjected = errors.New("device: injected fault")
	ErrCrashed  = errors.New("device: device crashed")
)

// PageIO is the minimal page-I/O surface Faulty wraps. Both Manager and
// *Switch satisfy it, and it is exactly the surface the buffer cache
// needs, so a Faulty composes either under the switch (one flaky
// device) or over it (every page the buffer pool touches).
type PageIO interface {
	NPages(rel OID) (uint32, error)
	Extend(rel OID) (uint32, error)
	ReadPage(rel OID, page uint32, buf []byte) error
	WritePage(rel OID, page uint32, buf []byte) error
}

// faultRule is one armed injection. Exactly one trigger field is set by
// the public constructors; pred-only rules fire on every matching op.
type faultRule struct {
	op      FaultOp
	nth     uint64                          // fire when the op counter hits nth
	every   uint64                          // fire when counter % every == 0
	prob    float64                         // fire with probability prob (seeded rng)
	pred    func(rel OID, page uint32) bool // fire when pred matches
	err     error                           // error to inject (wraps ErrInjected)
	hook    func()                          // crash hook, run once outside the lock
	oneShot bool                            // disarm after the first firing
	spent   bool
}

// Faulty wraps a device (or the whole switch) and injects deterministic
// failures. All scheduling is driven by per-op call counters and a
// seeded PRNG, so a test that arms the same rules over the same
// workload observes the same failures on every run — the determinism
// contract EXPERIMENTS.md recovery runs rely on.
//
// A Faulty with no armed rules is transparent. Rules are evaluated in
// arming order; the first rule that fires supplies the injected error.
// When a crash rule fires the device goes down: every subsequent
// operation fails with ErrCrashed until Heal is called, simulating a
// device that stops responding rather than one that fails a single
// request.
type Faulty struct {
	inner PageIO

	mu     sync.Mutex
	rng    *rand.Rand
	counts [nFaultOps]uint64
	trips  uint64
	down   bool
	rules  []*faultRule

	obsTrips   *obs.Counter // injected failures ("device.faults_injected")
	obsCrashes *obs.Counter // crash rules fired ("device.fault_crashes")
}

// SetObs attaches a metrics registry: every injected failure counts in
// "device.faults_injected" and every crash-rule firing in
// "device.fault_crashes", so fault-injection and torture runs show up
// in /metrics like every other subsystem.
func (f *Faulty) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	f.mu.Lock()
	f.obsTrips = reg.Counter("device.faults_injected")
	f.obsCrashes = reg.Counter("device.fault_crashes")
	f.mu.Unlock()
}

// NewFaulty wraps inner. The seed drives probabilistic rules
// (FailProb); counter-based rules are deterministic regardless.
func NewFaulty(inner PageIO, seed int64) *Faulty {
	return &Faulty{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// FailNth arms a one-shot failure on the n-th (1-based) operation of
// the given class. A nil err injects ErrInjected.
func (f *Faulty) FailNth(op FaultOp, n uint64, err error) *Faulty {
	return f.arm(&faultRule{op: op, nth: n, err: err, oneShot: true})
}

// FailEvery arms a failure on every k-th operation of the given class.
func (f *Faulty) FailEvery(op FaultOp, k uint64, err error) *Faulty {
	return f.arm(&faultRule{op: op, every: k, err: err})
}

// FailIf arms a failure on every operation of the given class whose
// (rel, page) the predicate matches. Sync ops carry rel 0, page 0.
func (f *Faulty) FailIf(op FaultOp, pred func(rel OID, page uint32) bool, err error) *Faulty {
	return f.arm(&faultRule{op: op, pred: pred, err: err})
}

// FailProb arms a failure on each operation of the given class with
// probability p, drawn from the seeded PRNG.
func (f *Faulty) FailProb(op FaultOp, p float64, err error) *Faulty {
	return f.arm(&faultRule{op: op, prob: p, err: err})
}

// CrashOn arms a one-shot crash at the n-th operation of the given
// class: the hook (typically buffer.Pool.Crash, or a test's bookkeeping)
// runs once, the operation fails with ErrCrashed, and the device stays
// down until Heal. hook may be nil.
//
// The hook runs with no Faulty lock held, but the faulting operation is
// still on the caller's stack: a hook must not re-enter a lock the
// caller holds. buffer.Pool.Crash is safe from log-relation writes
// (commit issues them outside the pool) and from data-page writebacks
// (the sharded pool issues those holding only the victim frame's
// latch, which Crash never takes); the conventional arming point is
// still the status-log write, because that is where a torn commit is
// semantically interesting.
func (f *Faulty) CrashOn(op FaultOp, n uint64, hook func()) *Faulty {
	return f.arm(&faultRule{op: op, nth: n, err: ErrCrashed, hook: hook, oneShot: true})
}

// CrashIf arms a one-shot crash on the first operation of the given
// class matching the predicate. See CrashOn for the hook contract.
func (f *Faulty) CrashIf(op FaultOp, pred func(rel OID, page uint32) bool, hook func()) *Faulty {
	return f.arm(&faultRule{op: op, pred: pred, err: ErrCrashed, hook: hook, oneShot: true})
}

func (f *Faulty) arm(r *faultRule) *Faulty {
	if r.err == nil {
		r.err = ErrInjected
	}
	f.mu.Lock()
	f.rules = append(f.rules, r)
	f.mu.Unlock()
	return f
}

// Clear disarms every rule (counters and the down state are kept).
func (f *Faulty) Clear() *Faulty {
	f.mu.Lock()
	f.rules = nil
	f.mu.Unlock()
	return f
}

// Heal brings a crashed device back up.
func (f *Faulty) Heal() *Faulty {
	f.mu.Lock()
	f.down = false
	f.mu.Unlock()
	return f
}

// Count reports how many operations of the given class have been
// issued (including failed ones).
func (f *Faulty) Count(op FaultOp) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

// Trips reports how many failures have been injected in total.
func (f *Faulty) Trips() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.trips
}

// Down reports whether a crash rule has taken the device down.
func (f *Faulty) Down() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down
}

// check advances the op counter and evaluates the armed rules,
// returning the injected error if one fires. The crash hook, if any,
// runs after the lock is released.
func (f *Faulty) check(op FaultOp, rel OID, page uint32) error {
	f.mu.Lock()
	if f.down {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s rel=%d page=%d", ErrCrashed, op, rel, page)
	}
	f.counts[op]++
	n := f.counts[op]
	var fired *faultRule
	for _, r := range f.rules {
		if r.spent || r.op != op {
			continue
		}
		fire := false
		switch {
		case r.nth > 0:
			fire = n == r.nth
		case r.every > 0:
			fire = n%r.every == 0
		case r.prob > 0:
			fire = f.rng.Float64() < r.prob
		case r.pred != nil:
			fire = r.pred(rel, page)
		}
		if !fire {
			continue
		}
		if r.oneShot {
			r.spent = true
		}
		if errors.Is(r.err, ErrCrashed) {
			f.down = true
			f.obsCrashes.Inc()
		}
		f.trips++
		f.obsTrips.Inc()
		fired = r
		break
	}
	f.mu.Unlock()
	if fired == nil {
		return nil
	}
	if fired.hook != nil {
		fired.hook()
	}
	return fmt.Errorf("%w: %s rel=%d page=%d (op #%d)", fired.err, op, rel, page, n)
}

// downErr reports the crashed state for metadata ops that are not
// otherwise fault targets.
func (f *Faulty) downErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return ErrCrashed
	}
	return nil
}

// PageIO (and Manager page-I/O) methods.

// NPages delegates to the wrapped device; it fails only while crashed.
func (f *Faulty) NPages(rel OID) (uint32, error) {
	if err := f.downErr(); err != nil {
		return 0, err
	}
	return f.inner.NPages(rel)
}

// Extend injects FaultExtend rules, then delegates.
func (f *Faulty) Extend(rel OID) (uint32, error) {
	if err := f.check(FaultExtend, rel, 0); err != nil {
		return 0, err
	}
	return f.inner.Extend(rel)
}

// ReadPage injects FaultRead rules, then delegates.
func (f *Faulty) ReadPage(rel OID, page uint32, buf []byte) error {
	if err := f.check(FaultRead, rel, page); err != nil {
		return err
	}
	return f.inner.ReadPage(rel, page, buf)
}

// WritePage injects FaultWrite rules, then delegates.
func (f *Faulty) WritePage(rel OID, page uint32, buf []byte) error {
	if err := f.check(FaultWrite, rel, page); err != nil {
		return err
	}
	return f.inner.WritePage(rel, page, buf)
}

// Remaining Manager methods, so a Faulty over a Manager can be
// Registered in a Switch like any other device. When the wrapped value
// does not implement the method (e.g. a *Switch), they are inert.

// Class reports the wrapped manager's class, or "faulty".
func (f *Faulty) Class() string {
	if m, ok := f.inner.(Manager); ok {
		return m.Class()
	}
	return "faulty"
}

// Create delegates to the wrapped manager, if it is one.
func (f *Faulty) Create(rel OID) error {
	if err := f.downErr(); err != nil {
		return err
	}
	if m, ok := f.inner.(Manager); ok {
		return m.Create(rel)
	}
	return nil
}

// Drop delegates to the wrapped manager or switch.
func (f *Faulty) Drop(rel OID) error {
	if err := f.downErr(); err != nil {
		return err
	}
	if d, ok := f.inner.(interface{ Drop(OID) error }); ok {
		return d.Drop(rel)
	}
	return nil
}

// Sync injects FaultSync rules, then delegates.
func (f *Faulty) Sync() error {
	if err := f.check(FaultSync, 0, 0); err != nil {
		return err
	}
	if s, ok := f.inner.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

var _ Manager = (*Faulty)(nil)
var _ PageIO = (*Switch)(nil)
