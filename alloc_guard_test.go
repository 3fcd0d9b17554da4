package repro

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/page"
)

// Allocation floors for the chunk data path. Each one counts
// allocations, so none depends on the wall clock; they say that a cached
// chunk read, a B-tree lookup and a buffer-pool hit allocate nothing,
// and that neither a read, a write nor a miss allocates anything the
// size of the payload or of a page.

// skipAllocFloors skips under the race detector, where sync.Pool drops
// a quarter of what is put into it and the pooled paths allocate.
func skipAllocFloors(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation floors are asserted in the non-race run")
	}
}

// bytesPerRun reports the bytes f allocates per call, averaged over
// runs calls after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// fileSwitch returns a device switch over a FileDisk volume in a test
// directory. Unlike the in-memory device, which allocates every page it
// stores, a FileDisk allocates nothing per page, so whatever a floor
// counts was allocated by the engine.
func fileSwitch(t *testing.T) *device.Switch {
	t.Helper()
	fd, err := device.OpenFileDisk(t.TempDir()+"/vol.inv", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fd.Close() })
	sw := device.NewSwitch()
	sw.Register(fd)
	return sw
}

func filePool(t *testing.T, capacity int, rels ...device.OID) *buffer.Pool {
	t.Helper()
	sw := fileSwitch(t)
	for _, rel := range rels {
		if err := sw.Place(rel, ""); err != nil {
			t.Fatal(err)
		}
	}
	return buffer.NewPool(sw, capacity)
}

func TestAllocFloorBtreeLookup(t *testing.T) {
	skipAllocFloors(t)
	tree, err := btree.Open(50, filePool(t, 64, 50))
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000 // two levels: six leaves under one root
	for i := 0; i < n; i++ {
		if _, err := tree.Insert(btree.Entry{Key: btree.Key{K1: uint64(i)}, Val: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	i, found := 0, 0
	allocs := testing.AllocsPerRun(1000, func() {
		i = (i + 37) % n
		if err := tree.Lookup(btree.Key{K1: uint64(i)}, func(btree.Entry) bool { found++; return true }); err != nil {
			t.Fatal(err)
		}
	})
	if found != 1001 {
		t.Fatalf("1001 lookups found %d entries", found)
	}
	if allocs != 0 {
		t.Fatalf("btree.Lookup on a cached two-level tree: %v allocs, want 0", allocs)
	}
}

func TestAllocFloorPoolHit(t *testing.T) {
	skipAllocFloors(t)
	pool := filePool(t, 8, 1)
	f, _, err := pool.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	pool.Release(f, true)
	allocs := testing.AllocsPerRun(1000, func() {
		f, err := pool.Get(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		pool.Release(f, false)
	})
	if allocs != 0 {
		t.Fatalf("Pool.Get hit + Release: %v allocs, want 0", allocs)
	}
}

// TestAllocFloorEvictingMiss: once the pool is full, a miss takes over
// the page of the frame it evicts, and NewPage does too.
func TestAllocFloorEvictingMiss(t *testing.T) {
	skipAllocFloors(t)
	const capacity, pages = 8, 64
	pool := filePool(t, capacity, 1, 2)
	for i := 0; i < pages; i++ {
		f, pn, err := pool.NewPage(1)
		if err != nil {
			t.Fatal(err)
		}
		f.Lock()
		for j := range f.Data {
			f.Data[j] = byte(pn)
		}
		f.Unlock()
		pool.Release(f, true)
	}
	pn := uint32(0)
	miss := func() {
		pn = (pn + 1) % pages
		f, err := pool.Get(1, pn)
		if err != nil {
			t.Fatal(err)
		}
		f.RLock()
		ok := f.Data[0] == byte(pn) && f.Data[page.Size-1] == byte(pn)
		f.RUnlock()
		pool.Release(f, false)
		if !ok {
			t.Fatalf("page %d came back with another page's bytes", pn)
		}
	}
	before := pool.Stats()
	if b := bytesPerRun(500, miss); b >= page.Size/4 {
		t.Fatalf("an evicting miss allocates %.0f B; it must not allocate a page", b)
	}
	if st := pool.Stats(); st.Misses-before.Misses != 501 || st.Evictions-before.Evictions != 501 {
		t.Fatalf("501 gets made %d misses and %d evictions", st.Misses-before.Misses, st.Evictions-before.Evictions)
	}
	extend := func() {
		f, _, err := pool.NewPage(2)
		if err != nil {
			t.Fatal(err)
		}
		f.RLock()
		zero := bytes.Count(f.Data, []byte{0}) == page.Size
		f.RUnlock()
		pool.Release(f, true)
		if !zero {
			t.Fatal("NewPage handed out a recycled page without zeroing it")
		}
	}
	if b := bytesPerRun(200, extend); b >= page.Size/4 {
		t.Fatalf("NewPage on a full pool allocates %.0f B; it must not allocate a page", b)
	}
}

// allocFloorFile opens, for writing inside a transaction, a file of the
// given number of chunks on a FileDisk volume behind a pool of the given
// size.
func allocFloorFile(t *testing.T, chunks, buffers int) (*core.Session, *core.File) {
	t.Helper()
	db, err := core.Open(fileSwitch(t), core.Options{Buffers: buffers, LogClass: "disk", DefaultClass: "disk"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := db.NewSession("floor")
	data := make([]byte, chunks*core.ChunkSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := s.WriteFile("/f", data, core.CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	f, err := s.OpenWrite("/f")
	if err != nil {
		t.Fatal(err)
	}
	return s, f
}

func TestAllocFloorReadAt(t *testing.T) {
	skipAllocFloors(t)
	s, f := allocFloorFile(t, 16, 128)
	defer s.Abort()
	buf := make([]byte, core.ChunkSize)
	c := 0
	read := func() {
		c = (c + 5) % 16
		if n, err := f.ReadAt(buf, int64(c)*core.ChunkSize); n != len(buf) || (err != nil && c != 15) {
			t.Fatalf("ReadAt chunk %d: %d bytes, %v", c, n, err)
		}
		if buf[0] != byte(c*core.ChunkSize%251) {
			t.Fatalf("chunk %d read back wrong", c)
		}
	}
	if allocs := testing.AllocsPerRun(500, read); allocs > 4 {
		t.Fatalf("ReadAt of one cached chunk: %v allocs, want <= 4", allocs)
	}
	if b := bytesPerRun(500, read); b >= core.ChunkSize/16 {
		t.Fatalf("ReadAt of one cached chunk allocates %.0f B; nothing may scale with the chunk", b)
	}
}

func TestAllocFloorWriteAt(t *testing.T) {
	skipAllocFloors(t)
	// A pool smaller than the file: every overwrite extends the data
	// relation by a page and evicts one.
	s, f := allocFloorFile(t, 16, 24)
	defer s.Abort()
	buf := bytes.Repeat([]byte{7}, core.ChunkSize)
	c := 0
	write := func() {
		c = (c + 5) % 16
		if _, err := f.WriteAt(buf, int64(c)*core.ChunkSize); err != nil {
			t.Fatal(err)
		}
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		write() // fill the pool
	}
	if b := bytesPerRun(300, write); b >= core.ChunkSize/4 {
		t.Fatalf("a full-chunk WriteAt + Flush allocates %.0f B; nothing may scale with the chunk", b)
	}
}
