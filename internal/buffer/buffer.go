// Package buffer implements the shared in-memory cache of recently used
// 8 KB data pages. The paper: "POSTGRES maintains an in-memory shared
// cache of recently used 8 KByte data pages. The size of this cache is
// tunable when the file system is installed; as shipped, the system uses
// 64 buffers, but the version in use locally uses 300. Data pages are
// kicked out of this cache in LRU order, regardless of the device from
// which they came. Dirty pages are written to backing store before being
// deleted from the cache."
//
// The pool is sharded: the frame map and LRU list are split across
// numShards lock shards keyed by a hash of (relation, page), so cache
// hits on different pages rarely contend. Capacity is still global —
// an atomic frame count — and eviction order is still global LRU: every
// frame carries a monotonic recency stamp assigned when it is unpinned,
// and the evictor claims the minimum-stamp frame across all shard LRU
// fronts. Backend I/O (miss fills, writebacks) runs with no shard lock
// held; concurrent misses on the same page single-flight on a loading
// placeholder frame.
package buffer

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/page"
)

// DefaultBuffers is the as-shipped cache size; LocalBuffers is the size
// the Berkeley installation ran with.
const (
	DefaultBuffers = 64
	LocalBuffers   = 300
)

// numShards is the number of lock shards; must be a power of two.
const numShards = 16

// Backend supplies and accepts pages; *device.Switch implements it. A
// successful ReadPage fills all of buf: the pool hands it recycled
// pages without zeroing them first.
type Backend interface {
	NPages(rel device.OID) (uint32, error)
	Extend(rel device.OID) (uint32, error)
	ReadPage(rel device.OID, page uint32, buf []byte) error
	WritePage(rel device.OID, page uint32, buf []byte) error
}

// Key names one cached page.
type Key struct {
	Rel  device.OID
	Page uint32
}

// Frame is one cached page. Callers must hold the frame via Pool.Get /
// Pool.NewPage, serialise access to Data with Lock/Unlock (writers) or
// RLock/RUnlock (readers), and return it with Pool.Release.
type Frame struct {
	Key  Key
	Data page.Page

	mu    sync.RWMutex
	pins  int
	dirty bool
	stamp uint64 // global LRU recency; assigned at unpin time

	// Links in the shard's LRU list of unpinned frames; onLRU says
	// whether the frame is on it. Guarded by the shard lock.
	prev, next *Frame
	onLRU      bool

	// claims counts the evictors that took the frame off the LRU in
	// pickVictim and have not finished with it. A claimant reads Data
	// (for the writeback) without a pin, so the page of a frame with a
	// claim outstanding is never recycled. Guarded by the shard lock.
	claims int

	// dirtyVer is bumped (under the shard lock) every time dirty is
	// set. A writeback snapshots it before the backend write and clears
	// dirty afterwards only if it is unchanged, so the bit never goes
	// false before the data is durably on the backend and a writer who
	// re-dirtied the frame mid-write is never silently cleaned.
	dirtyVer uint64

	// Single-flight miss handling: a frame is installed in the map in
	// loading state before the backend read; concurrent Gets wait on
	// loadDone instead of issuing duplicate reads. The first waiter
	// makes the channel (under the shard lock), so a miss nobody else
	// waits for allocates none.
	loading  bool
	loadDone chan struct{}
	loadErr  error
}

// lruList is one shard's list of unpinned frames in ascending stamp
// order, linked through the frames themselves so that unpinning a frame
// allocates nothing.
type lruList struct{ front, back *Frame }

// insertAfter links f behind at; a nil at puts f at the front.
func (l *lruList) insertAfter(f, at *Frame) {
	f.prev, f.onLRU = at, true
	if at == nil {
		f.next, l.front = l.front, f
	} else {
		f.next, at.next = at.next, f
	}
	if f.next == nil {
		l.back = f
	} else {
		f.next.prev = f
	}
}

func (l *lruList) remove(f *Frame) {
	if f.prev == nil {
		l.front = f.next
	} else {
		f.prev.next = f.next
	}
	if f.next == nil {
		l.back = f.prev
	} else {
		f.next.prev = f.prev
	}
	f.prev, f.next, f.onLRU = nil, nil, false
}

// Lock latches the frame's contents for writing. The try-fast-path
// keeps the uncontended case free of wait-event bookkeeping; only an
// actual block counts a frame-latch wait.
func (f *Frame) Lock() {
	if f.mu.TryLock() {
		return
	}
	w := obs.BeginWait(obs.WaitFrameLatch, obs.Active(), "")
	f.mu.Lock()
	w.End()
}

// Unlock releases the write latch.
func (f *Frame) Unlock() { f.mu.Unlock() }

// RLock latches the frame's contents for reading; readers share.
func (f *Frame) RLock() {
	if f.mu.TryRLock() {
		return
	}
	w := obs.BeginWait(obs.WaitFrameLatch, obs.Active(), "")
	f.mu.RLock()
	w.End()
}

// RUnlock releases the read latch.
func (f *Frame) RUnlock() { f.mu.RUnlock() }

// shard is one lock shard: a slice of the frame map plus the LRU list
// of its unpinned frames, kept in ascending stamp order (front = least
// recently used), plus the shard's dirty set — the frames a flush must
// visit. Flushes iterate the dirty sets instead of every cached frame,
// so a commit force over a mostly-clean pool is O(dirty), not
// O(capacity).
type shard struct {
	mu     sync.Mutex
	frames map[Key]*Frame
	dirty  map[Key]*Frame // invariant: s.dirty[k] == s.frames[k] and is dirty
	lru    lruList

	// The pool's cache counters, always on and one per event: Stats
	// sums them, ShardStats and inv_stat_buffer read them, and SetObs
	// publishes them as "buffer.shardNN.*".
	hits, misses, evictions, writebacks obs.Counter
}

// insertByStamp reinserts an unpinned frame into the LRU preserving
// stamp order, for paths (flush unpins, failed evictions) that must not
// count as a use.
func (s *shard) insertByStamp(f *Frame) {
	at := s.lru.back
	for at != nil && at.stamp > f.stamp {
		at = at.prev
	}
	s.lru.insertAfter(f, at)
}

// ShardStat is one lock shard's view of the cache: how many frames it
// currently holds and its share of the pool-wide counters.
type ShardStat struct {
	Shard      int
	Frames     int
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
}

// ShardStats reports per-shard cache statistics. Frame counts are read
// under each shard's lock in turn (not all at once), so the rows are
// each internally consistent but the set is not a single instant.
func (p *Pool) ShardStats() []ShardStat {
	out := make([]ShardStat, numShards)
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		frames := len(s.frames)
		s.mu.Unlock()
		out[i] = ShardStat{
			Shard:      i,
			Frames:     frames,
			Hits:       s.hits.Load(),
			Misses:     s.misses.Load(),
			Evictions:  s.evictions.Load(),
			Writebacks: s.writebacks.Load(),
		}
	}
	return out
}

// PoolStats is a snapshot of the pool's counters.
type PoolStats struct {
	Hits        int64 // Get served from cache
	Misses      int64 // Get that issued a backend read
	Writebacks  int64 // dirty pages written to the backend
	Evictions   int64 // frames dropped to make room
	Overcommits int64 // evictions that found every frame pinned
	LoadWaits   int64 // Gets that waited on another goroutine's load

	DirtyPages   int64 // frames currently dirty
	BGWritebacks int64 // writebacks issued by the background writer
	BGRounds     int64 // background-writer wakeups that wrote anything
	BGErrors     int64 // background flush attempts that hit a device error
}

// poolObs holds the pool's latency histograms, one set per shard so
// scrapes can spot a hot shard. All pointers are resolved once in
// SetObs; the hot path only observes into them.
type poolObs struct {
	hitNs, loadNs, wbNs [numShards]*obs.Histogram
}

// Pool is the shared LRU buffer cache.
type Pool struct {
	backend  Backend
	capacity int
	shards   [numShards]shard
	nframes  atomic.Int64  // cached frames, global, vs capacity
	clock    atomic.Uint64 // LRU recency stamps

	ndirty atomic.Int64 // frames currently dirty, across all shards

	overcommits, loadWaits           atomic.Int64
	bgWritebacks, bgRounds, bgErrors atomic.Int64

	bg atomic.Pointer[bgWriter] // background writer, when started

	// Pages of frames that left the pool, kept for the next miss or
	// NewPage instead of allocating 8 KB each time. At most capacity
	// pages; freeMu is a leaf lock (taken under a shard lock).
	freeMu sync.Mutex
	free   []page.Page

	obs atomic.Pointer[poolObs]
}

// markDirtyLocked sets the frame dirty and registers it in its shard's
// dirty set (maintaining the global dirty count). A frame no longer in
// the map — invalidated while pinned — is marked but not registered:
// nothing should ever flush it, exactly as when flushes scanned the
// frame map. Caller holds the shard lock.
func (p *Pool) markDirtyLocked(s *shard, f *Frame) {
	f.dirty = true
	if s.frames[f.Key] == f && s.dirty[f.Key] != f {
		s.dirty[f.Key] = f
		p.ndirty.Add(1)
	}
}

// clearDirtyLocked clears the frame's dirty bit and deregisters it.
// Caller holds the shard lock and has proven the contents durable (a
// successful backend write with an unchanged dirty version).
func (p *Pool) clearDirtyLocked(s *shard, f *Frame) {
	f.dirty = false
	if s.dirty[f.Key] == f {
		delete(s.dirty, f.Key)
		p.ndirty.Add(-1)
	}
}

// NewPool returns a cache of the given capacity (in pages) over the
// backend. Capacity ≤ 0 selects DefaultBuffers.
func NewPool(backend Backend, capacity int) *Pool {
	if capacity <= 0 {
		capacity = DefaultBuffers
	}
	p := &Pool{backend: backend, capacity: capacity}
	for i := range p.shards {
		p.shards[i].frames = make(map[Key]*Frame)
		p.shards[i].dirty = make(map[Key]*Frame)
	}
	return p
}

// recycleLocked keeps the page of a frame that has just left the shard
// map for reuse. The caller holds the shard lock and has checked, under
// it, that the frame has no pin and no claim: nobody holds it and, now
// that the map has let go of it, nobody can reach it again, so nobody
// can still be reading its page.
func (p *Pool) recycleLocked(f *Frame) {
	p.freeMu.Lock()
	if len(p.free) < p.capacity {
		p.free = append(p.free, f.Data)
	}
	p.freeMu.Unlock()
	f.Data = nil
}

// takePage returns a recycled page if there is one (contents arbitrary)
// and a fresh zeroed one otherwise.
func (p *Pool) takePage() (pg page.Page, recycled bool) {
	p.freeMu.Lock()
	if n := len(p.free); n > 0 {
		pg, p.free = p.free[n-1], p.free[:n-1]
	}
	p.freeMu.Unlock()
	if pg != nil {
		return pg, true
	}
	return make(page.Page, page.Size), false
}

// shardIdx maps a key to its lock shard index.
func (p *Pool) shardIdx(k Key) int {
	h := uint64(k.Rel)<<32 | uint64(k.Page)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h & (numShards - 1))
}

// shard maps a key to its lock shard.
func (p *Pool) shard(k Key) *shard { return &p.shards[p.shardIdx(k)] }

// SetObs attaches a metrics registry. The per-shard counters are
// published in place and latency histograms registered under
// "buffer.shardNN.*" (human-facing output merges the shard series back
// into one family); the pool-wide gauges read the pool when the
// registry is snapshotted. Safe to call once, before or during
// concurrent use.
func (p *Pool) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	o := &poolObs{}
	for i := range p.shards {
		s := &p.shards[i]
		prefix := fmt.Sprintf("buffer.shard%02d.", i)
		reg.PublishCounter(prefix+"hits", &s.hits)
		reg.PublishCounter(prefix+"misses", &s.misses)
		reg.PublishCounter(prefix+"evictions", &s.evictions)
		reg.PublishCounter(prefix+"writebacks", &s.writebacks)
		o.hitNs[i] = reg.Histogram(prefix + "hit_ns")
		o.loadNs[i] = reg.Histogram(prefix + "load_ns")
		o.wbNs[i] = reg.Histogram(prefix + "writeback_ns")
	}
	p.obs.Store(o)
	reg.GaugeFunc("buffer.capacity_pages", func() int64 { return int64(p.capacity) })
	reg.GaugeFunc("buffer.dirty_pages", p.ndirty.Load)
	reg.GaugeFunc("buffer.overcommits", p.overcommits.Load) // demand exceeded capacity with all frames pinned
	reg.GaugeFunc("buffer.load_waits", p.loadWaits.Load)    // Gets that waited behind another goroutine's load
}

// Capacity reports the pool's frame budget.
func (p *Pool) Capacity() int { return p.capacity }

// Stats reports the pool's counters, summing the per-shard ones.
func (p *Pool) Stats() PoolStats {
	ps := PoolStats{
		Overcommits: p.overcommits.Load(),
		LoadWaits:   p.loadWaits.Load(),

		DirtyPages:   p.ndirty.Load(),
		BGWritebacks: p.bgWritebacks.Load(),
		BGRounds:     p.bgRounds.Load(),
		BGErrors:     p.bgErrors.Load(),
	}
	for i := range p.shards {
		s := &p.shards[i]
		ps.Hits += s.hits.Load()
		ps.Misses += s.misses.Load()
		ps.Evictions += s.evictions.Load()
		ps.Writebacks += s.writebacks.Load()
	}
	return ps
}

// pickVictim claims the globally least-recently-used unpinned frame:
// the minimum-stamp frame across all shard LRU fronts. The claim
// removes it from its LRU list but leaves the dirty bit alone — it is
// cleared only after the writeback durably succeeds, so a concurrent
// flush scanning for dirty frames can never mistake a page with an
// in-flight (and possibly failing) writeback for a clean one. Returns
// the frame, its dirty version at claim time, and whether it was
// dirty; nil if every frame is pinned.
func (p *Pool) pickVictim() (*Frame, uint64, bool) {
	for {
		best := -1
		var bestStamp uint64
		for i := range p.shards {
			s := &p.shards[i]
			s.mu.Lock()
			if f := s.lru.front; f != nil {
				if best == -1 || f.stamp < bestStamp {
					best, bestStamp = i, f.stamp
				}
			}
			s.mu.Unlock()
		}
		if best == -1 {
			return nil, 0, false
		}
		s := &p.shards[best]
		s.mu.Lock()
		f := s.lru.front
		if f == nil {
			s.mu.Unlock()
			continue // raced with a pin; rescan
		}
		s.lru.remove(f)
		f.claims++
		ver, wasDirty := f.dirtyVer, f.dirty
		s.mu.Unlock()
		return f, ver, wasDirty
	}
}

// makeRoom evicts frames until the pool is within capacity, writing
// back dirty victims with no shard lock held. If every frame is pinned
// the pool overcommits (counted) rather than deadlocking.
//
// A dirty victim is written back while still cached and still marked
// dirty — the bit is cleared only once the write has succeeded (and
// only if no writer re-dirtied the frame meanwhile), so a concurrent
// commit force scanning for dirty frames writes the page itself rather
// than trusting a writeback that may yet fail. If the writeback fails
// the frame goes back on the LRU (still dirty) and the error is
// returned, so the only copy of a dirty page is never discarded on a
// failing device. Writebacks and evictions are charged to sp, the
// request making room (nil for none).
func (p *Pool) makeRoom(sp *obs.Span) error {
	for p.nframes.Load() > int64(p.capacity) {
		f, ver, wasDirty := p.pickVictim()
		if f == nil {
			p.overcommits.Add(1)
			return nil // all pinned: overcommit
		}
		if wasDirty {
			wev := obs.BeginWait(obs.WaitBackendWrite, sp, "")
			f.mu.RLock()
			err := p.backend.WritePage(f.Key.Rel, f.Key.Page, f.Data)
			f.mu.RUnlock()
			d := wev.End()
			if o := p.obs.Load(); o != nil {
				o.wbNs[p.shardIdx(f.Key)].Observe(d)
			}
			sp.AddBufWrite(d)
			s := p.shard(f.Key)
			s.mu.Lock()
			if err != nil {
				f.claims--
				if f.pins == 0 && !f.onLRU && s.frames[f.Key] == f {
					s.insertByStamp(f)
				}
				s.mu.Unlock()
				return fmt.Errorf("buffer: writeback %v: %w", f.Key, err)
			}
			if f.dirtyVer == ver {
				p.clearDirtyLocked(s, f)
			}
			s.mu.Unlock()
			s.writebacks.Inc()
		}
		s := p.shard(f.Key)
		s.mu.Lock()
		f.claims--
		switch {
		case s.frames[f.Key] != f || f.pins != 0 || f.onLRU || f.claims != 0:
			// Re-pinned (its holder's Release will relink it), relinked
			// by a concurrent flush's unpin, invalidated, or claimed again
			// by another evictor, who decides: not our victim any more.
		case !f.dirty:
			delete(s.frames, f.Key)
			p.recycleLocked(f)
			p.nframes.Add(-1)
			s.evictions.Inc()
			sp.BufEvict()
		default:
			// Re-dirtied while being written back: keep it cached.
			s.insertByStamp(f)
		}
		s.mu.Unlock()
	}
	return nil
}

// Get returns the frame for (rel, pageNo), pinned. On a miss the page
// is read from the backend with no shard lock held; concurrent misses
// on the same page wait for the first loader instead of issuing
// duplicate reads.
func (p *Pool) Get(rel device.OID, pageNo uint32) (*Frame, error) {
	key := Key{rel, pageNo}
	si := p.shardIdx(key)
	s := &p.shards[si]
	o, sp := p.obs.Load(), obs.Active()
	var t0 time.Time
	if o != nil {
		t0 = time.Now()
	}
	for {
		s.mu.Lock()
		if f, ok := s.frames[key]; ok {
			if f.loading {
				if f.loadDone == nil {
					f.loadDone = make(chan struct{})
				}
				ch := f.loadDone
				s.mu.Unlock()
				p.loadWaits.Add(1)
				// A waiter's stall is real latency for its request even
				// though only the loader's read hits the registry.
				wev := obs.BeginWait(obs.WaitBufLoad, sp, "")
				<-ch
				sp.AddBufLoad(wev.End())
				if err := f.loadErr; err != nil {
					return nil, err
				}
				continue // loaded: the next pass pins it
			}
			f.pins++
			if f.onLRU {
				s.lru.remove(f)
			}
			s.mu.Unlock()
			s.hits.Inc()
			if o != nil {
				o.hitNs[si].Observe(int64(time.Since(t0)))
			}
			sp.BufHit()
			return f, nil
		}
		// Miss: install a loading placeholder so concurrent Gets on this
		// key single-flight, then fill it outside the shard lock.
		data, _ := p.takePage() // ReadPage overwrites all of it
		f := &Frame{Key: key, Data: data, pins: 1, loading: true}
		// Count the frame while still holding the shard lock that
		// installs it, so Crash (which zeroes the count under all shard
		// locks) cannot interleave and leave nframes overcounted.
		s.frames[key] = f
		p.nframes.Add(1)
		s.mu.Unlock()
		s.misses.Inc()
		sp.BufMiss()

		err := p.makeRoom(sp)
		if err == nil {
			// Time only the backend read: makeRoom's writebacks charge
			// themselves, keeping load and write attribution disjoint.
			wev := obs.BeginWait(obs.WaitBackendRead, sp, "")
			err = p.backend.ReadPage(rel, pageNo, f.Data)
			d := wev.End()
			if o != nil {
				o.loadNs[si].Observe(d)
			}
			sp.AddBufLoad(d)
		}
		s.mu.Lock()
		if err != nil && s.frames[key] == f {
			delete(s.frames, key)
			p.nframes.Add(-1)
		}
		f.loadErr = err
		f.loading = false
		waiters := f.loadDone
		s.mu.Unlock()
		if waiters != nil {
			close(waiters)
		}
		if err != nil {
			return nil, err
		}
		return f, nil
	}
}

// NewPage extends rel by one page and returns its pinned, zeroed frame.
// Room is made before the relation is extended: extending first would
// leak an extended-but-uncached page if the eviction writeback failed.
func (p *Pool) NewPage(rel device.OID) (*Frame, uint32, error) {
	var sp *obs.Span
	if p.nframes.Add(1) > int64(p.capacity) { // reserve the slot
		sp = obs.Active() // only an eviction has anything to charge
	}
	if err := p.makeRoom(sp); err != nil {
		p.nframes.Add(-1)
		return nil, 0, err
	}
	pageNo, err := p.backend.Extend(rel)
	if err != nil {
		p.nframes.Add(-1)
		return nil, 0, err
	}
	key := Key{rel, pageNo}
	data, recycled := p.takePage()
	if recycled {
		clear(data)
	}
	f := &Frame{Key: key, Data: data, pins: 1, dirtyVer: 1}
	s := p.shard(key)
	s.mu.Lock()
	s.frames[key] = f
	p.markDirtyLocked(s, f)
	s.mu.Unlock()
	p.bgKick()
	return f, pageNo, nil
}

// Release unpins a frame, marking it dirty if the caller modified it.
// Releasing a frame that is not pinned panics: a double-Release would
// otherwise silently corrupt the pin counts and LRU invariants.
func (p *Pool) Release(f *Frame, dirty bool) {
	s := p.shard(f.Key)
	s.mu.Lock()
	if f.pins <= 0 {
		s.mu.Unlock()
		panic(fmt.Sprintf("buffer: Release of unpinned frame %v (pins=%d)", f.Key, f.pins))
	}
	if dirty {
		p.markDirtyLocked(s, f)
		f.dirtyVer++
	}
	f.pins--
	if f.pins == 0 && !f.onLRU && s.frames[f.Key] == f {
		f.stamp = p.clock.Add(1)
		s.lru.insertAfter(f, s.lru.back)
	}
	s.mu.Unlock()
	if dirty {
		p.bgKick()
	}
}

// FlushAll writes every dirty frame to the backend in sorted
// (relation, page) order — the elevator discipline every real buffer
// manager uses, which keeps force-at-commit writes as sequential as the
// data allows. Frames stay cached. This is the force-at-commit policy
// the no-overwrite storage manager depends on for durability without a
// write-ahead log.
func (p *Pool) FlushAll() error {
	return p.flushWhere(func(Key) bool { return true })
}

// FlushRel writes the dirty frames of one relation, sorted by page.
func (p *Pool) FlushRel(rel device.OID) error {
	return p.flushWhere(func(k Key) bool { return k.Rel == rel })
}

// flushWhere writes back every dirty frame matching the predicate (nil
// matches all) via the snapshot/write/unpin pipeline below.
func (p *Pool) flushWhere(match func(Key) bool) error {
	_, err := p.flushFrames(p.snapshotDirty(match, 0), false)
	return err
}

// snapshotDirty collects up to limit (0 = unbounded) dirty frames
// matching the predicate, pinned so they cannot be evicted mid-flush,
// in sorted (relation, page) order — the elevator discipline every
// real buffer manager uses, which keeps force-at-commit writes as
// sequential as the data allows. It walks the per-shard dirty sets,
// never the full frame maps, so the cost is O(dirty).
func (p *Pool) snapshotDirty(match func(Key) bool, limit int) []*Frame {
	var dirty []*Frame
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for _, f := range s.dirty {
			if match != nil && !match(f.Key) {
				continue
			}
			f.pins++
			if f.onLRU {
				s.lru.remove(f)
			}
			dirty = append(dirty, f)
		}
		s.mu.Unlock()
	}
	sort.Slice(dirty, func(i, j int) bool {
		a, b := dirty[i].Key, dirty[j].Key
		if a.Rel != b.Rel {
			return a.Rel < b.Rel
		}
		return a.Page < b.Page
	})
	if limit > 0 && len(dirty) > limit {
		p.unpinFlushed(dirty[limit:])
		dirty = dirty[:limit]
	}
	return dirty
}

// flushFrames writes each pinned frame back holding only that frame's
// read latch — never a shard lock — so concurrent cache hits proceed
// during a commit force. A frame's dirty bit is cleared only after its
// write returns success, and only if its dirty version is unchanged
// (no writer re-dirtied it mid-write); a frame some concurrent
// writeback already cleaned is skipped, because a clear dirty bit now
// proves the data is durably on the backend. Unpinning restores each
// frame's LRU position by its preserved stamp: a flush is not a use.
// Reports how many pages were written.
func (p *Pool) flushFrames(dirty []*Frame, background bool) (int, error) {
	var firstErr error
	var wrote int
	o, sp := p.obs.Load(), obs.Active()
	for _, f := range dirty {
		s := p.shard(f.Key)
		s.mu.Lock()
		if !f.dirty {
			// A concurrent writeback completed since the snapshot; the
			// page is already durable.
			s.mu.Unlock()
			continue
		}
		ver := f.dirtyVer
		s.mu.Unlock()
		wev := obs.BeginWait(obs.WaitBackendWrite, sp, "")
		f.mu.RLock()
		err := p.backend.WritePage(f.Key.Rel, f.Key.Page, f.Data)
		f.mu.RUnlock()
		d := wev.End()
		if o != nil {
			o.wbNs[p.shardIdx(f.Key)].Observe(d)
		}
		sp.AddBufWrite(d)
		if err != nil {
			// The failed frame (and everything after it) stays dirty —
			// the bit was never cleared — so a retry after the device
			// heals flushes exactly the pages that never made it out.
			firstErr = fmt.Errorf("buffer: flush %v: %w", f.Key, err)
			break
		}
		s.mu.Lock()
		if f.dirtyVer == ver {
			p.clearDirtyLocked(s, f)
		}
		s.mu.Unlock()
		wrote++
		s.writebacks.Inc()
		if background {
			p.bgWritebacks.Add(1)
		}
	}
	p.unpinFlushed(dirty)
	return wrote, firstErr
}

// unpinFlushed returns flush-pinned frames to their LRU positions.
func (p *Pool) unpinFlushed(frames []*Frame) {
	for _, f := range frames {
		s := p.shard(f.Key)
		s.mu.Lock()
		f.pins--
		if f.pins == 0 && !f.onLRU && s.frames[f.Key] == f {
			if f.stamp == 0 {
				f.stamp = p.clock.Add(1)
			}
			s.insertByStamp(f)
		}
		s.mu.Unlock()
	}
}

// InvalidateRel drops all frames of a relation without writing them,
// for use after dropping the relation.
func (p *Pool) InvalidateRel(rel device.OID) {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for key, f := range s.frames {
			if key.Rel == rel {
				if f.onLRU {
					s.lru.remove(f)
				}
				if s.dirty[key] == f {
					delete(s.dirty, key)
					p.ndirty.Add(-1)
				}
				delete(s.frames, key)
				if f.pins == 0 && f.claims == 0 {
					p.recycleLocked(f)
				}
				p.nframes.Add(-1)
			}
		}
		s.mu.Unlock()
	}
}

// Crash discards every frame, dirty or not, without writing. It
// simulates losing volatile memory so recovery tests can verify that
// the status log alone reconstructs a consistent state. All shard
// locks are held (acquired in index order — the one place the pool
// nests shard mutexes) while the maps are cleared and the frame count
// zeroed, so a concurrent Get cannot install-and-count a frame between
// the two and skew nframes for the life of the pool.
func (p *Pool) Crash() {
	for i := range p.shards {
		p.shards[i].mu.Lock()
	}
	for i := range p.shards {
		s := &p.shards[i]
		s.frames = make(map[Key]*Frame)
		s.dirty = make(map[Key]*Frame)
		s.lru = lruList{}
	}
	p.nframes.Store(0)
	p.ndirty.Store(0)
	for i := range p.shards {
		p.shards[i].mu.Unlock()
	}
}

// NPages reports the relation's page count from the backend.
func (p *Pool) NPages(rel device.OID) (uint32, error) { return p.backend.NPages(rel) }
