// Package core implements the Inversion file system: a file system
// built on top of a database system. Files are decomposed into chunk
// records stored in per-file tables, the namespace and file attributes
// are ordinary tables, and every file system operation is a database
// operation — which is how Inversion gets transaction protection,
// fine-grained time travel, instant crash recovery, typed files with
// user-defined functions, and ad hoc queries, all from "a small set of
// routines compiled into the data manager".
package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/device"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/rowenc"
	"repro/internal/sysview"
	"repro/internal/txn"
	"repro/internal/value"
)

// Well-known OIDs (beyond the txn-log OIDs 1 and 2 and catalog OIDs
// 5–7).
const (
	NamingRel      device.OID = 3  // naming(filename, parentid, file)
	FileAttRel     device.OID = 4  // fileatt(file, owner, type, size, …)
	NameIdxRel     device.OID = 13 // (parentid, hash(filename)) → naming TID
	FileIdxRel     device.OID = 14 // file OID → naming TID
	AttIdxRel      device.OID = 15 // file OID → fileatt TID
	ArchiveRel     device.OID = 16 // vacuum archive
	RootDirOID     device.OID = 10 // the "/" directory
	InvalidFileOID device.OID = 0
)

// ChunkSize is the number of file bytes stored per chunk record. It is
// computed so that a single chunk record fits exactly on one 8 KB data
// manager page in every form it can take: plain (chunkno 4 + length
// prefix 4), compressed-but-incompressible (+ 5-byte compression
// envelope), and vacuumed into the archive (+ 28-byte archive header):
// "File data are collected into chunks slightly smaller than 8 KBytes."
const ChunkSize = heap.MaxPayload - 41

// MaxFileSize is the largest Inversion file: 2^31 chunks of ChunkSize
// bytes ≈ 17.6 TB, the figure the paper quotes (chunk numbers are
// 32-bit signed, chunks are ~8 KB).
const MaxFileSize = int64(1<<31) * int64(ChunkSize)

// Errors returned by the file system layer.
var (
	ErrNotExist     = errors.New("inversion: file does not exist")
	ErrExist        = errors.New("inversion: file already exists")
	ErrIsDirectory  = errors.New("inversion: is a directory")
	ErrNotDirectory = errors.New("inversion: not a directory")
	ErrNotEmpty     = errors.New("inversion: directory not empty")
	ErrReadOnly     = errors.New("inversion: file opened read-only")
	ErrHistoricalWr = errors.New("inversion: historical files may not be opened for writing")
	ErrClosed       = errors.New("inversion: file is closed")
	ErrBadPath      = errors.New("inversion: bad path")
	ErrFileTooBig   = errors.New("inversion: file would exceed 17.6TB limit")
	ErrNoFunction   = errors.New("inversion: no such function")
	ErrTypeMismatch = errors.New("inversion: function does not apply to this file type")
	// ErrShardedVolume refuses a volume whose log control page declares
	// more than one namespace shard: its hash-routed naming and fileatt
	// rows live in relations this engine does not read.
	ErrShardedVolume = errors.New("inversion: volume has a sharded namespace, which this version does not read")
)

// Options configures a database instance.
type Options struct {
	// Buffers is the shared page cache size (default 64, the paper's
	// as-shipped figure; the Berkeley installation used 300).
	Buffers int
	// LogClass is the device class holding the transaction logs
	// (default: the switch's default class).
	LogClass string
	// DefaultClass is where new files go when no class is named.
	DefaultClass string
	// TimeSource overrides commit timestamping (tests).
	TimeSource func() int64
	// TrackATime records access times on reads (costs a metadata
	// update per read transaction; off by default).
	TrackATime bool
	// BackgroundWriter starts the buffer pool's background writer:
	// eviction writebacks move off the foreground, and a commit's data
	// force flushes only the recent dirty set the writer has not
	// reached yet. Off by default — the writer's wall-clock pacing
	// would make the simulated-clock benchmark digits nondeterministic,
	// so only wall-clock deployments (invd, the scaling benchmarks)
	// enable it.
	BackgroundWriter bool
	// BGWriter tunes the background writer when enabled (zero values
	// select buffer.BGConfig defaults).
	BGWriter buffer.BGConfig
	// CheckpointEvery, when positive, checkpoints the transaction log
	// at this wall-clock interval: the current horizon is persisted in
	// the log's control page so the next recovery reads only log pages
	// covering recent transactions. 0 disables (DB.Checkpoint can
	// still be called manually).
	CheckpointEvery time.Duration
	// GroupCommitWindow, when positive, lets a commit-batch leader hold
	// its force open this long to absorb concurrent committers into one
	// log force (see txn.Manager.CommitWindow). 0 (default) forces
	// immediately.
	GroupCommitWindow time.Duration
	// WaitSampling has no effect: every blocking site counts its waits
	// into the process-wide profile (obs.BeginWait), so there is no
	// sampler to configure. The field stays so existing harnesses that
	// set it still compile.
	WaitSampling time.Duration
	// MetricsHistory, when positive, runs the metrics-history recorder
	// at this wall-clock interval: every tick the obs registry is
	// diffed and appended into the inv_history/inv_history_samples
	// system relations (created lazily at first enable), so the full
	// query surface — including asof — works on the engine's own
	// telemetry. Off by default: no relations are created and the
	// simulated-clock benchmark digits are untouched (the recorder
	// never reads the virtual clock).
	MetricsHistory time.Duration
}

// FileFunc is a user-defined function over a file, executed inside the
// data manager process — the Go analogue of the dynamically loaded C
// functions of POSTGRES 4.0.1.
type FileFunc func(ctx *FuncCtx) (value.V, error)

// DB is one Inversion database: a mount point whose files all root at
// "/" in this database.
type DB struct {
	sw   *device.Switch
	pool *buffer.Pool
	log  *txn.Log
	mgr  *txn.Manager
	cat  *catalog.Catalog
	opts Options

	// The namespace: the naming and fileatt heaps and their three
	// indexes, opened once at Open.
	naming  *heap.Relation
	fileatt *heap.Relation
	nameIdx *btree.Tree
	fileIdx *btree.Tree
	attIdx  *btree.Tree
	archive *heap.Relation

	relMu   sync.RWMutex
	rels    map[device.OID]*heap.Relation
	trees   map[device.OID]*btree.Tree
	funcMu  sync.RWMutex
	funcs   map[string]FileFunc
	builtin map[string]FileFunc

	valMu      sync.RWMutex
	validators map[string]TypeValidator

	metrics *obs.Registry
	views   *sysview.Registry

	vacMu   sync.Mutex
	vacRuns [][]value.V // recent vacuum runs as inv_vacuum rows, newest first

	stopBG   func()        // background writer, when started
	stopCkpt chan struct{} // closed to stop the checkpointer
	ckptWg   sync.WaitGroup
	hist     *historyRecorder // metrics-history recorder, when configured
	closeMu  sync.Mutex       // Close is idempotent on the goroutines
}

// Open opens (or bootstraps) an Inversion database over the device
// switch. The switch must have at least one registered device manager.
func Open(sw *device.Switch, opts Options) (*DB, error) {
	if opts.Buffers <= 0 {
		opts.Buffers = buffer.DefaultBuffers
	}
	logClass := opts.LogClass
	logDev, err := pickManager(sw, logClass)
	if err != nil {
		return nil, err
	}
	log, err := txn.OpenLog(logDev)
	if err != nil {
		return nil, err
	}
	mgr := txn.NewManager(log)
	if opts.TimeSource != nil {
		mgr.TimeSource = opts.TimeSource
	}
	mgr.CommitWindow = opts.GroupCommitWindow
	pool := buffer.NewPool(sw, opts.Buffers)
	mgr.ForceData = func() error {
		if err := pool.FlushAll(); err != nil {
			return err
		}
		return sw.Sync()
	}

	db := &DB{
		sw:      sw,
		pool:    pool,
		log:     log,
		mgr:     mgr,
		opts:    opts,
		rels:    make(map[device.OID]*heap.Relation),
		trees:   make(map[device.OID]*btree.Tree),
		funcs:   make(map[string]FileFunc),
		metrics: obs.NewRegistry(),
	}
	pool.SetObs(db.metrics)
	mgr.SetObs(db.metrics)
	obs.PublishWaitCounters(db.metrics)

	// A volume bootstrapped with a hash-partitioned namespace keeps rows
	// in relations this engine never reads; opening it would lose them.
	if n := log.NamespaceShards(); n > 1 {
		return nil, fmt.Errorf("%w: it declares %d", ErrShardedVolume, n)
	}

	// Ensure the fixed relations exist and are placed.
	for _, oid := range []device.OID{
		catalog.RelationsRel, catalog.TypesRel, catalog.FunctionsRel, ArchiveRel,
		NamingRel, FileAttRel, NameIdxRel, FileIdxRel, AttIdxRel,
	} {
		if _, err := sw.Home(oid); err != nil {
			if err := sw.Place(oid, opts.DefaultClass); err != nil {
				return nil, err
			}
		}
	}

	db.naming = heap.Open(NamingRel, pool, mgr)
	db.fileatt = heap.Open(FileAttRel, pool, mgr)
	if db.nameIdx, err = btree.Open(NameIdxRel, pool); err != nil {
		return nil, err
	}
	if db.fileIdx, err = btree.Open(FileIdxRel, pool); err != nil {
		return nil, err
	}
	if db.attIdx, err = btree.Open(AttIdxRel, pool); err != nil {
		return nil, err
	}
	db.archive = heap.Open(ArchiveRel, pool, mgr)

	cat, err := catalog.Open(
		heap.Open(catalog.RelationsRel, pool, mgr),
		heap.Open(catalog.TypesRel, pool, mgr),
		heap.Open(catalog.FunctionsRel, pool, mgr),
		mgr, sw)
	if err != nil {
		return nil, err
	}
	db.cat = cat
	cat.NoteOID(RootDirOID)

	// Re-place catalogued relations whose home the switch does not know
	// — this is how a persistent database reopened over a fresh switch
	// finds its file tables again (the catalog records each relation's
	// device class).
	for _, ri := range cat.Relations() {
		if _, err := sw.Home(ri.OID); err != nil {
			if err := sw.Place(ri.OID, ri.Class); err != nil {
				return nil, err
			}
		}
	}

	db.registerBuiltins()
	db.registerGauges()

	// System catalogs: the engine's own internals as relations a from
	// clause can name. The wire server adds inv_traces (the trace ring
	// lives there) and the history heaps join once catalogued; inv_columns
	// reads the registry itself, so it sees those additions.
	db.views = sysview.NewRegistry()
	db.views.Register(sysview.NewStatOps(db.metrics))
	db.views.Register(sysview.NewStatBuffer(pool))
	db.views.Register(sysview.NewLocks(mgr.Locks()))
	db.views.Register(sysview.NewTransactions(mgr))
	db.views.Register(db.relationsCatalog())
	db.views.Register(db.vacuumCatalog())
	db.views.Register(sysview.NewStatTxn(db.metrics, mgr, pool))
	db.views.Register(sysview.NewWaitEvents(db.WaitProfile))
	db.views.Register(db.historyMetaCatalog())
	db.views.Register(sysview.NewColumnsCatalog(db.views))
	if _, ok := cat.RelationByOID(HistorySamplesRel); ok {
		db.registerHistoryRels()
	}

	// Optional background machinery. Both are wall-clock paced, so the
	// simulated-clock benchmarks leave them off; when off, commits and
	// recovery behave exactly as before this machinery existed.
	if opts.BackgroundWriter {
		db.stopBG = pool.StartBackgroundWriter(opts.BGWriter)
	}
	if opts.MetricsHistory > 0 {
		db.hist = newHistoryRecorder(db, opts.MetricsHistory)
		db.hist.start()
	}
	if opts.CheckpointEvery > 0 {
		db.stopCkpt = make(chan struct{})
		db.ckptWg.Add(1)
		go func() {
			defer db.ckptWg.Done()
			ticker := time.NewTicker(opts.CheckpointEvery)
			defer ticker.Stop()
			for {
				w := obs.BeginWaitLoop(obs.WaitCheckpointIdle, "checkpointer")
				select {
				case <-db.stopCkpt:
					w.End()
					return
				case <-ticker.C:
					w.End()
					// Errors are deliberately dropped: a failed
					// checkpoint leaves the previous (still correct)
					// checkpoint in place, and the next tick retries.
					t0 := time.Now()
					err := db.mgr.Checkpoint()
					detail := ""
					if err != nil {
						detail = "error: " + err.Error()
					}
					obs.Flight().RecordLifecycle("checkpoint", detail,
						int64(time.Since(t0)), 1)
				}
			}
		}()
	}

	// Bootstrap the root directory if this database is fresh: "The
	// root directory, named '/', appears in every POSTGRES database as
	// shipped from Berkeley."
	if _, _, err := db.lookupChild(mgr.CurrentSnapshot(), 0, "/"); errors.Is(err, ErrNotExist) {
		if err := db.bootstrapRoot(); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, err
	}
	return db, nil
}

func pickManager(sw *device.Switch, class string) (device.Manager, error) {
	if class != "" {
		return sw.Manager(class)
	}
	classes := sw.Classes()
	if len(classes) == 0 {
		return nil, errors.New("inversion: device switch has no managers")
	}
	// Prefer NVRAM for the logs if present, else any manager.
	if m, err := sw.Manager("mem"); err == nil {
		return m, nil
	}
	return sw.Manager(classes[0])
}

func (db *DB) bootstrapRoot() error {
	x := txn.BootstrapXID
	if err := db.addNaming(x, "/", 0, RootDirOID); err != nil {
		return err
	}
	if err := db.addAttr(x, FileAttr{File: RootDirOID, Owner: "root", Type: TypeDirectory}); err != nil {
		return err
	}
	// Flush AND sync: the bootstrap transaction's status was forced (with
	// a sync) by OpenLog before these pages existed, so without a sync of
	// its own the root directory could be lost in a crash while its
	// commit record survives — a committed transaction with torn data.
	// (The simulated devices' Sync is free, so benchmark digits are
	// unaffected.)
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	return db.sw.Sync()
}

// Manager exposes the transaction manager.
func (db *DB) Manager() *txn.Manager { return db.mgr }

// Catalog exposes the system catalog.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Pool exposes the buffer pool (benchmarks read its stats).
func (db *DB) Pool() *buffer.Pool { return db.pool }

// Switch exposes the device switch.
func (db *DB) Switch() *device.Switch { return db.sw }

// Obs exposes the metrics registry every layer of this database records
// into.
func (db *DB) Obs() *obs.Registry { return db.metrics }

// SysViews exposes the registry of relations a from clause can name.
// The query engine resolves range variables against it; servers may
// register additional catalogs (the wire server adds inv_traces).
func (db *DB) SysViews() *sysview.Registry { return db.views }

// Checkpoint persists the current transaction horizon in the log's
// control page, bounding the log pages the next recovery must read.
func (db *DB) Checkpoint() error { return db.mgr.Checkpoint() }

// stopBackground halts the history recorder, background writer, and
// checkpointer (if started), waiting for every goroutine to exit.
// Idempotent. The recorder is halted first, so an in-flight recording
// transaction aborts before the pool is torn down beneath it.
func (db *DB) stopBackground() {
	db.hist.halt()
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	if db.stopBG != nil {
		db.stopBG()
		db.stopBG = nil
	}
	if db.stopCkpt != nil {
		close(db.stopCkpt)
		db.ckptWg.Wait()
		db.stopCkpt = nil
	}
}

// WaitProfile reports the wait-event profile. Waits are counted
// process-wide, so it covers every database this process has opened.
func (db *DB) WaitProfile() obs.WaitProfile { return obs.SnapshotWaits() }

// Close flushes every dirty page and forces the devices, leaving the
// database cleanly reopenable. Device managers themselves (e.g. a
// persistent FileDisk) are owned by the caller and closed separately.
func (db *DB) Close() error {
	db.stopBackground()
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	return db.sw.Sync()
}

// Crash simulates a machine crash for recovery tests: the buffer cache
// is lost; stable storage survives. Reopen with Recover.
func (db *DB) Crash() {
	db.stopBackground()
	db.pool.Crash()
}

// Recover reopens the database over the same devices after a Crash.
// There is no consistency check pass: recovery is the reopen itself.
func (db *DB) Recover() (*DB, error) { return Open(db.sw, db.opts) }

// dataRel returns (caching) the heap relation handle for a file's
// chunk table. The fast path is a shared-lock map read; only the first
// access of a relation takes the write lock.
func (db *DB) dataRel(oid device.OID) *heap.Relation {
	db.relMu.RLock()
	r, ok := db.rels[oid]
	db.relMu.RUnlock()
	if ok {
		return r
	}
	db.relMu.Lock()
	defer db.relMu.Unlock()
	if r, ok := db.rels[oid]; ok {
		return r
	}
	r = heap.Open(oid, db.pool, db.mgr)
	db.rels[oid] = r
	return r
}

// chunkTree returns (caching) the B-tree handle for a file's chunk
// index, with the same shared-lock fast path as dataRel.
func (db *DB) chunkTree(oid device.OID) (*btree.Tree, error) {
	db.relMu.RLock()
	t, ok := db.trees[oid]
	db.relMu.RUnlock()
	if ok {
		return t, nil
	}
	db.relMu.Lock()
	defer db.relMu.Unlock()
	if t, ok := db.trees[oid]; ok {
		return t, nil
	}
	t, err := btree.Open(oid, db.pool)
	if err != nil {
		return nil, err
	}
	db.trees[oid] = t
	return t, nil
}

// nameKey builds the naming-index key for a child name under a parent
// directory.
func nameKey(parent device.OID, name string) btree.Key {
	h := fnv.New64a()
	h.Write([]byte(name))
	return btree.Key{K1: uint64(parent), K2: h.Sum64()}
}

// oidKey builds a single-OID index key.
func oidKey(oid device.OID) btree.Key { return btree.Key{K1: uint64(oid)} }

// Naming rows: naming(filename = char[], parentid = object_id,
// file = object_id).
func encodeNaming(name string, parent, file device.OID) []byte {
	return rowenc.NewWriter(32).String(name).Uint32(uint32(parent)).Uint32(uint32(file)).Done()
}

func decodeNaming(b []byte) (name string, parent, file device.OID, err error) {
	r := rowenc.NewReader(b)
	name = r.String()
	parent = device.OID(r.Uint32())
	file = device.OID(r.Uint32())
	return name, parent, file, r.Err()
}

// DataRelName reports the name of the table storing a file's chunks:
// "The name of the POSTGRES table storing data chunks for /etc/passwd
// would be inv23114."
func DataRelName(oid device.OID) string { return fmt.Sprintf("inv%d", oid) }

// IdxRelName names a file's chunk-number index relation.
func IdxRelName(oid device.OID) string { return fmt.Sprintf("inv%d_chunk_idx", oid) }
