package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/query"
	"repro/internal/rowenc"
	"repro/internal/txn"
	"repro/internal/wire"
)

// The probes call each layer's public functions directly, a fixed number
// of times, over device.NewMem where a backend is needed. They isolate a
// layer's own cost from everything the workloads stack on top of it, so
// a per-layer change has a number that moves even when the end-to-end
// share is small. Each reports a mean and stays well under a second.

// perCall runs f n times and returns the mean nanoseconds of one call.
func perCall(n int, f func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(n), nil
}

// scaled is a probe's iteration count at the given share (the smoke
// test runs a sliver of each).
func scaled(n int, share float64) int {
	if s := int(float64(n) * share); s > 1 {
		return s
	}
	return 1
}

// rawEngine is pool + transaction manager over one memory device,
// below core: what heap, btree and buffer need.
type rawEngine struct {
	sw   *device.Switch
	pool *buffer.Pool
	mgr  *txn.Manager
	next device.OID
}

func newRawEngine(pages int) (*rawEngine, error) {
	sw := device.NewSwitch()
	mem := device.NewMem(nil, 0)
	sw.Register(mem)
	log, err := txn.OpenLog(mem)
	if err != nil {
		return nil, err
	}
	return &rawEngine{sw: sw, pool: buffer.NewPool(sw, pages), mgr: txn.NewManager(log), next: 100}, nil
}

func (e *rawEngine) newRel() (device.OID, error) {
	e.next++
	return e.next, e.sw.Place(e.next, "")
}

func memDB() (*core.DB, error) {
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	return core.Open(sw, core.Options{Buffers: poolPages})
}

// runProbes fills m with every probe metric.
func runProbes(m map[string]float64, share float64) error {
	for _, p := range []func(map[string]float64, float64) error{
		probeWire, probeCore, probeQuery, probeTxn, probeHeap, probeBtree, probeBuffer, probePageRowenc, probeObs,
	} {
		if err := p(m, share); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	return nil
}

// probeWire: the smallest request there is (PLseek on an open
// descriptor) over loopback — framing, two syscalls each way, two
// goroutine wake-ups, the server's span bookkeeping.
func probeWire(m map[string]float64, share float64) (err error) {
	db, err := memDB()
	if err != nil {
		return err
	}
	srv := wire.NewServerWith(db, wire.ServerConfig{GracePeriod: time.Second})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() {
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
	}()
	c, err := wire.Dial(addr, "probe")
	if err != nil {
		return err
	}
	defer c.Close()
	fd, err := c.PCreat("/f", core.CreateOpts{})
	if err != nil {
		return err
	}
	m["wire.roundtrip_ns"], err = perCall(scaled(4000, share), func(int) error {
		_, err := c.PLseek(fd, 0, wire.SeekSet)
		return err
	})
	return err
}

func probeCore(m map[string]float64, share float64) error {
	db, err := memDB()
	if err != nil {
		return err
	}
	s := db.NewSession("probe")
	const files = 200
	if err := s.Begin(); err != nil {
		return err
	}
	if err := s.Mkdir("/d"); err != nil {
		return err
	}
	for i := 0; i < files; i++ {
		if err := s.WriteFile(fmt.Sprintf("/d/f%03d", i), make([]byte, 100+i), core.CreateOpts{}); err != nil {
			return err
		}
	}
	data := make([]byte, 128*core.ChunkSize)
	newRng(1, 0).fill(data)
	if err := s.WriteFile("/big", data, core.CreateOpts{}); err != nil {
		return err
	}
	if err := s.Commit(); err != nil {
		return err
	}

	if m["core.stat_ns"], err = perCall(scaled(5000, share), func(i int) error {
		_, err := s.Stat(fmt.Sprintf("/d/f%03d", i%files))
		return err
	}); err != nil {
		return err
	}

	f, err := s.Open("/big")
	if err != nil {
		return err
	}
	buf := make([]byte, core.ChunkSize)
	if m["core.read_chunk_ns"], err = perCall(scaled(4000, share), func(i int) error {
		_, err := f.ReadAt(buf, int64(i*37%128)*core.ChunkSize)
		if err == io.EOF {
			err = nil
		}
		return err
	}); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// One transaction, whole-chunk overwrites: insert + index insert,
	// no commit cost inside the loop.
	if err := s.Begin(); err != nil {
		return err
	}
	wf, err := s.OpenWrite("/big")
	if err != nil {
		return err
	}
	if m["core.write_chunk_ns"], err = perCall(scaled(1000, share), func(i int) error {
		_, err := wf.WriteAt(buf, int64(i*37%128)*core.ChunkSize)
		return err
	}); err != nil {
		return err
	}
	if err := wf.Close(); err != nil {
		return err
	}
	if err := s.Commit(); err != nil {
		return err
	}

	m["core.create_unlink_ns"], err = perCall(scaled(300, share), func(i int) error {
		f, err := s.Create("/d/tmp", core.CreateOpts{})
		if err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return s.Unlink("/d/tmp")
	})
	return err
}

func probeQuery(m map[string]float64, share float64) error {
	db, err := memDB()
	if err != nil {
		return err
	}
	s := db.NewSession("probe")
	const files = 200
	if err := s.Begin(); err != nil {
		return err
	}
	for i := 0; i < files; i++ {
		if err := s.WriteFile(fmt.Sprintf("/f%03d", i), make([]byte, 100+i), core.CreateOpts{}); err != nil {
			return err
		}
	}
	if err := s.Commit(); err != nil {
		return err
	}
	eng := query.New(db)
	// The parser is not exported; a retrieve over an unknown relation
	// lexes, parses, fails one map lookup and returns.
	if m["query.parse_ns"], err = perCall(scaled(5000, share), func(int) error {
		if _, err := eng.Run(s, `retrieve (r.filename, r.size) from r in no_such_relation where r.size > 1100`); err == nil {
			return fmt.Errorf("query over an unknown relation succeeded")
		}
		return nil
	}); err != nil {
		return err
	}
	perQuery, err := perCall(scaled(20, share), func(int) error {
		res, err := eng.Run(s, metaQuery)
		if err == nil && len(res.Rows) != 0 {
			err = fmt.Errorf("query probe returned %d rows", len(res.Rows))
		}
		return err
	})
	m["query.exec_ns_per_file"] = perQuery / (files + 1) // + the root directory
	return err
}

func probeTxn(m map[string]float64, share float64) error {
	db, err := memDB()
	if err != nil {
		return err
	}
	mgr := db.Manager()
	if m["txn.begin_commit_ro_ns"], err = perCall(scaled(3000, share), func(int) error {
		tx, err := mgr.Begin()
		if err != nil {
			return err
		}
		return tx.Commit()
	}); err != nil {
		return err
	}
	e, err := newRawEngine(poolPages)
	if err != nil {
		return err
	}
	oid, err := e.newRel()
	if err != nil {
		return err
	}
	e.mgr.ForceData = e.pool.FlushAll
	rel := heap.Open(oid, e.pool, e.mgr)
	row := make([]byte, 100)
	if m["txn.begin_commit_rw_ns"], err = perCall(scaled(2000, share), func(int) error {
		tx, err := e.mgr.Begin()
		if err != nil {
			return err
		}
		if _, err := rel.Insert(tx.ID(), row); err != nil {
			return err
		}
		return tx.Commit()
	}); err != nil {
		return err
	}
	locks := mgr.Locks()
	if m["txn.lock_cycle_ns"], err = perCall(scaled(50000, share), func(i int) error {
		if err := locks.Acquire(7, txn.LockTag{Space: txn.SpaceName, Rel: 3, Key: uint64(i)}, txn.LockExclusive); err != nil {
			return err
		}
		locks.ReleaseAll(7)
		return nil
	}); err != nil {
		return err
	}
	visible := 0
	m["txn.snapshot_ns"], err = perCall(scaled(50000, share), func(i int) error {
		if mgr.CurrentSnapshot().CanSee(txn.XID(3+i%3000), 0) {
			visible++
		}
		return nil
	})
	if err == nil && visible == 0 {
		err = fmt.Errorf("snapshot probe saw no committed transaction")
	}
	return err
}

func probeHeap(m map[string]float64, share float64) error {
	e, err := newRawEngine(2048)
	if err != nil {
		return err
	}
	oid, err := e.newRel()
	if err != nil {
		return err
	}
	rel := heap.Open(oid, e.pool, e.mgr)
	tx, err := e.mgr.Begin()
	if err != nil {
		return err
	}
	// Chunk-sized records: the data path's unit, one per page.
	chunk := make([]byte, core.ChunkSize+8)
	n := scaled(1000, share)
	tids := make([]heap.TID, n)
	if m["heap.insert_ns"], err = perCall(n, func(i int) error {
		tids[i], err = rel.Insert(tx.ID(), chunk)
		return err
	}); err != nil {
		return err
	}
	snap := tx.Snapshot()
	fetches := scaled(20000, share)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if m["heap.fetch_ns"], err = perCall(fetches, func(i int) error {
		_, err := rel.Fetch(snap, tids[i*31%n])
		return err
	}); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	m["heap.fetch_alloc_bytes"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(fetches)

	// Namespace-sized records for the scan: many per page.
	oid, err = e.newRel()
	if err != nil {
		return err
	}
	small := heap.Open(oid, e.pool, e.mgr)
	tuples := scaled(20000, share)
	for i := 0; i < tuples; i++ {
		if _, err := small.Insert(tx.ID(), chunk[:64]); err != nil {
			return err
		}
	}
	seen := 0
	perScan, err := perCall(5, func(int) error {
		return small.Scan(snap, func(heap.TID, []byte) (bool, error) { seen++; return false, nil })
	})
	if err == nil && seen != 5*tuples {
		err = fmt.Errorf("heap scan saw %d tuples, want %d", seen, 5*tuples)
	}
	m["heap.scan_ns_per_tuple"] = perScan / float64(tuples)
	return err
}

func probeBtree(m map[string]float64, share float64) error {
	e, err := newRawEngine(2048)
	if err != nil {
		return err
	}
	oid, err := e.newRel()
	if err != nil {
		return err
	}
	tree, err := btree.Open(oid, e.pool)
	if err != nil {
		return err
	}
	n := scaled(10000, share)
	r := newRng(1, 0)
	keys := make([]btree.Key, n)
	if m["btree.insert_ns"], err = perCall(n, func(i int) error {
		keys[i] = btree.Key{K1: r.next() % 4096, K2: r.next()}
		_, err := tree.Insert(btree.Entry{Key: keys[i], Val: uint64(i)})
		return err
	}); err != nil {
		return err
	}
	found := 0
	if m["btree.lookup_ns"], err = perCall(scaled(20000, share), func(i int) error {
		return tree.Lookup(keys[i*31%n], func(btree.Entry) bool { found++; return true })
	}); err != nil {
		return err
	}
	if found == 0 {
		return fmt.Errorf("btree lookups found nothing")
	}
	seen := 0
	perWalk, err := perCall(5, func(int) error {
		return tree.Ascend(btree.Key{}, func(btree.Entry) bool { seen++; return true })
	})
	if err == nil && seen != 5*n {
		err = fmt.Errorf("btree ascend saw %d entries, want %d", seen, 5*n)
	}
	m["btree.ascend_ns_per_entry"] = perWalk / float64(n)
	return err
}

func probeBuffer(m map[string]float64, share float64) error {
	// A 16-page pool over a 1024-page relation: a sequential walk
	// misses and evicts on every Get.
	e, err := newRawEngine(16)
	if err != nil {
		return err
	}
	oid, err := e.newRel()
	if err != nil {
		return err
	}
	const relPages = 1024
	if m["buffer.new_page_ns"], err = perCall(relPages, func(int) error {
		f, _, err := e.pool.NewPage(oid)
		if err == nil {
			e.pool.Release(f, true)
		}
		return err
	}); err != nil {
		return err
	}
	get := func(i int) error {
		f, err := e.pool.Get(oid, uint32(i%relPages))
		if err == nil {
			e.pool.Release(f, false)
		}
		return err
	}
	if m["buffer.get_miss_ns"], err = perCall(scaled(20000, share), get); err != nil {
		return err
	}
	m["buffer.get_hit_ns"], err = perCall(scaled(200000, share), func(i int) error { return get(i % 8) })
	return err
}

func probePageRowenc(m map[string]float64, share float64) error {
	p := page.Page(make([]byte, device.PageSize))
	item := make([]byte, 100)
	page.Init(p, 1, 0)
	var err error
	if m["page.insert_ns"], err = perCall(scaled(200000, share), func(int) error {
		if p.Insert(item) < 0 {
			page.Init(p, 1, 0)
			if p.Insert(item) < 0 {
				return fmt.Errorf("page insert into an empty page failed")
			}
		}
		return nil
	}); err != nil {
		return err
	}
	slots, total := p.NumSlots(), 0
	if m["page.item_ns"], err = perCall(scaled(1000000, share), func(i int) error {
		total += len(p.Item(i % slots))
		return nil
	}); err != nil {
		return err
	}
	if total == 0 {
		return fmt.Errorf("page items were empty")
	}
	// The chunk row exactly as core encodes it: chunk number, then the
	// length-prefixed payload.
	chunk := make([]byte, core.ChunkSize)
	var rec []byte
	if m["rowenc.encode_chunk_ns"], err = perCall(scaled(50000, share), func(i int) error {
		rec = rowenc.NewWriter(8 + len(chunk)).Uint32(uint32(i)).Bytes(chunk).Done()
		return nil
	}); err != nil {
		return err
	}
	m["rowenc.decode_chunk_ns"], err = perCall(scaled(200000, share), func(int) error {
		r := rowenc.NewReader(rec)
		r.Uint32()
		if len(r.Bytes()) != len(chunk) {
			return fmt.Errorf("chunk row decoded short")
		}
		return r.Err()
	})
	return err
}

// probeObs: what every charge site in the engine pays to find "the span
// this goroutine is serving" while any span is live in the process.
func probeObs(m map[string]float64, share float64) error {
	obs.Activate(obs.NewSpan("probe"))
	defer obs.Deactivate()
	var err error
	m["obs.active_ns"], err = perCall(scaled(50000, share), func(int) error {
		if obs.Active() == nil {
			return fmt.Errorf("no active span")
		}
		return nil
	})
	return err
}
