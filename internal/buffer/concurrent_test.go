package buffer

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/page"
	"sync/atomic"
)

// countingBackend counts ReadPage calls and can hold them on a gate so
// a test can pile up concurrent misses behind one in-flight load.
type countingBackend struct {
	Backend
	reads atomic.Int64
	gate  chan struct{} // when non-nil, ReadPage blocks until closed
}

func (b *countingBackend) ReadPage(rel device.OID, pn uint32, buf []byte) error {
	b.reads.Add(1)
	if b.gate != nil {
		<-b.gate
	}
	return b.Backend.ReadPage(rel, pn, buf)
}

// TestConcurrentGetSingleFlight: concurrent misses on the same page
// must issue exactly one backend read and share one frame — the
// waiters block on the loading frame, not on a duplicate I/O.
func TestConcurrentGetSingleFlight(t *testing.T) {
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	if err := sw.Place(1, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Extend(1); err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{Backend: sw, gate: make(chan struct{})}
	p := NewPool(cb, 8)

	const goroutines = 8
	frames := make([]*Frame, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			frames[g], errs[g] = p.Get(1, 0)
		}(g)
	}
	// Hold the loader on the gate until every other goroutine is
	// waiting on the loading frame, so the misses really are
	// concurrent, then let the load finish.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().LoadWaits < goroutines-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d goroutines waited on the load", p.Stats().LoadWaits, goroutines-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(cb.gate)
	wg.Wait()

	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
		if frames[g] != frames[0] {
			t.Fatalf("goroutine %d got a duplicate frame for the same page", g)
		}
		p.Release(frames[g], false)
	}
	if got := cb.reads.Load(); got != 1 {
		t.Fatalf("backend reads = %d, want 1 (single-flight)", got)
	}
	st := p.Stats()
	if st.Misses != 1 || st.Hits != goroutines-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", st.Hits, st.Misses, goroutines-1)
	}
}

// TestOvercommitCounted: when every frame is pinned the pool exceeds
// capacity rather than deadlocking, and says so in its stats.
func TestOvercommitCounted(t *testing.T) {
	p, sw := newPool(t, 2)
	if err := sw.Place(1, ""); err != nil {
		t.Fatal(err)
	}
	var frames []*Frame
	for i := 0; i < 3; i++ {
		f, _, err := p.NewPage(1)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if got := p.Stats().Overcommits; got != 1 {
		t.Fatalf("overcommits = %d, want 1", got)
	}
	for _, f := range frames {
		p.Release(f, false)
	}
	// With frames unpinned again, the next demand shrinks the pool back
	// to capacity instead of overcommitting further.
	f, _, err := p.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f, true)
	st := p.Stats()
	if st.Overcommits != 1 {
		t.Fatalf("overcommits after recovery = %d, want 1", st.Overcommits)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded while shrinking back to capacity")
	}
}

// writeHookBackend runs a hook before each backend write; a non-nil
// hook error is returned without touching the underlying backend.
type writeHookBackend struct {
	Backend
	onWrite func(rel device.OID, pn uint32) error
}

func (b *writeHookBackend) WritePage(rel device.OID, pn uint32, buf []byte) error {
	if b.onWrite != nil {
		if err := b.onWrite(rel, pn); err != nil {
			return err
		}
	}
	return b.Backend.WritePage(rel, pn, buf)
}

// newHookPool builds a pool of the given capacity over a
// writeHookBackend wrapping a switch with n pre-extended pages.
func newHookPool(t *testing.T, capacity, n int) (*Pool, *writeHookBackend, *device.Switch) {
	t.Helper()
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	if err := sw.Place(1, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := sw.Extend(1); err != nil {
			t.Fatal(err)
		}
	}
	hb := &writeHookBackend{Backend: sw}
	return NewPool(hb, capacity), hb, sw
}

// TestFlushDuringFailingEvictionWriteback is the durability race the
// pre-clearing protocol loses: an eviction writeback is in flight (and
// will fail) while a commit force runs. The force must see the page as
// dirty and write it itself — if FlushAll returns success, the page is
// durably on the backend even though the eviction's own write errors
// out afterwards. Under the old protocol the eviction cleared the
// dirty bit before its write, the force skipped the page, and a
// committed transaction's data went missing on crash.
func TestFlushDuringFailingEvictionWriteback(t *testing.T) {
	p, hb, sw := newHookPool(t, 2, 3)
	var first atomic.Bool
	inFlight := make(chan struct{})
	gate := make(chan struct{})
	hb.onWrite = func(rel device.OID, pn uint32) error {
		if pn == 0 && first.CompareAndSwap(false, true) {
			close(inFlight)
			<-gate
			return device.ErrInjected
		}
		return nil
	}
	dirtyPage(t, p, 0, 0xD1)
	readByte(t, p, 1) // newer stamp: page 0 is the eviction victim

	getErr := make(chan error, 1)
	go func() {
		f, err := p.Get(1, 2) // demands room: evicts page 0, write blocks
		if err == nil {
			p.Release(f, false)
		}
		getErr <- err
	}()
	<-inFlight

	// Commit force overlapping the doomed writeback.
	if err := p.FlushAll(); err != nil {
		t.Fatalf("FlushAll during in-flight eviction writeback: %v", err)
	}
	buf := make(page.Page, page.Size)
	if err := sw.ReadPage(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xD1 {
		t.Fatalf("FlushAll succeeded but page 0 not durable on backend: %#x", buf[0])
	}

	close(gate)
	if err := <-getErr; !errors.Is(err, device.ErrInjected) {
		t.Fatalf("Get over failing eviction: %v", err)
	}
	// The page survives in cache and still reads back.
	if got := readByte(t, p, 0); got != 0xD1 {
		t.Fatalf("page 0 after failed eviction = %#x", got)
	}
}

// TestEvictionVictimRepinnedDuringWriteback: a victim that is re-pinned
// mid-writeback and released clean goes back on its shard's LRU; the
// eviction must then leave it alone. Deleting it from the frame map
// while its LRU element survives would strand a stale node that a later
// victim scan claims as a bogus victim.
func TestEvictionVictimRepinnedDuringWriteback(t *testing.T) {
	p, hb, _ := newHookPool(t, 2, 3)
	var once sync.Once
	inFlight := make(chan struct{})
	gate := make(chan struct{})
	hb.onWrite = func(rel device.OID, pn uint32) error {
		if pn == 0 {
			once.Do(func() { close(inFlight) })
			<-gate
		}
		return nil
	}
	dirtyPage(t, p, 0, 0xE1)
	readByte(t, p, 1) // newer stamp: page 0 is the eviction victim

	getErr := make(chan error, 1)
	go func() {
		f, err := p.Get(1, 2)
		if err == nil {
			p.Release(f, false)
		}
		getErr <- err
	}()
	<-inFlight

	// Re-pin the victim while its writeback is blocked, then release it
	// clean: Release relinks it on the LRU, so it is no longer the
	// eviction's to drop. (No frame latch here — the writeback holds the
	// read latch for the duration.)
	f0, err := p.Get(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f0, false)
	close(gate)
	if err := <-getErr; err != nil {
		t.Fatal(err)
	}

	// The re-linked frame must still be cached, on the LRU, and every
	// LRU node must point at a mapped frame (no stale nodes).
	s := p.shard(Key{1, 0})
	s.mu.Lock()
	f, ok := s.frames[Key{1, 0}]
	onLRU := ok && f.onLRU
	s.mu.Unlock()
	if !ok {
		t.Fatal("re-pinned victim was deleted from the frame map")
	}
	if !onLRU {
		t.Fatal("re-pinned victim is cached but off the LRU")
	}
	total := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for lf := s.lru.front; lf != nil; lf = lf.next {
			if s.frames[lf.Key] != lf {
				t.Errorf("stale LRU node for %v", lf.Key)
			}
		}
		total += len(s.frames)
		s.mu.Unlock()
	}
	if got := p.nframes.Load(); got != int64(total) {
		t.Fatalf("nframes = %d, cached frames = %d", got, total)
	}
}

// TestCrashGetFrameCountConsistency races Crash against concurrent
// Gets and checks that the frame count matches the cached frames once
// everything quiesces: an install-and-count that interleaves a Crash
// must not skew nframes for the life of the pool.
func TestCrashGetFrameCountConsistency(t *testing.T) {
	p, _ := newFaultyPool(t, 8, 32)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f, err := p.Get(1, uint32((g*7+i)%32))
				if err != nil {
					t.Error(err)
					return
				}
				p.Release(f, false)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		p.Crash()
	}
	close(stop)
	wg.Wait()
	total := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		total += len(s.frames)
		s.mu.Unlock()
	}
	if got := p.nframes.Load(); got != int64(total) {
		t.Fatalf("nframes = %d but %d frames cached", got, total)
	}
}
