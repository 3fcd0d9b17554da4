package core

import (
	"time"

	"repro/internal/btree"
	"repro/internal/device"
	"repro/internal/heap"
	"repro/internal/txn"
)

func btreeEntry(key btree.Key, tid heap.TID) btree.Entry {
	return btree.Entry{Key: key, Val: tid.Pack()}
}

func chunkKey(chunkno uint32) btree.Key { return btree.Key{K1: uint64(chunkno)} }

// MigrateFile moves a file's chunk table and chunk index to another
// device class. Accesses stay location-transparent throughout; only the
// device switch's routing changes. ("Files that meet some selection
// criteria should be moved from fast, expensive storage like magnetic
// disk to slower, cheaper storage, such as magnetic tape.")
func (db *DB) MigrateFile(oid device.OID, attr FileAttr, class string) error {
	if _, err := db.sw.Manager(class); err != nil {
		return err
	}
	// Push cached pages down so the copy sees current bytes, then drop
	// them: page identity moves devices.
	if err := db.pool.FlushRel(oid); err != nil {
		return err
	}
	if err := db.pool.FlushRel(attr.Idx); err != nil {
		return err
	}
	if err := db.sw.Migrate(oid, class); err != nil {
		return err
	}
	db.pool.InvalidateRel(oid)
	if err := db.sw.Migrate(attr.Idx, class); err != nil {
		return err
	}
	db.pool.InvalidateRel(attr.Idx)
	return nil
}

// VacuumStats aggregates a database-wide vacuum pass.
type VacuumStats struct {
	Relations int
	heap.VacuumStats
}

// Vacuum runs the vacuum cleaner over the naming and attribute tables
// and every file chunk table. Obsolete record versions are moved to the
// archive relation (or discarded for FlagNoHistory files), and stale
// index entries are removed from the B-trees.
func (db *DB) Vacuum() (VacuumStats, error) {
	var out VacuumStats
	// Wall clock, deliberately not the injected TimeSource: vacuum
	// telemetry (the registry and inv_vacuum) reports real durations
	// even under a simulated commit clock.
	start := time.Now()
	vx, err := db.mgr.Begin()
	if err != nil {
		return out, err
	}
	horizon := db.mgr.Horizon()
	snap := db.mgr.CurrentSnapshot()

	// Metadata relations: archive history, fix up their indexes.
	nstats, err := db.naming.Vacuum(horizon, heap.VacuumArchive, db.archive, vx.ID(),
		func(tid heap.TID, payload []byte) {
			if name, parent, file, err := decodeNaming(payload); err == nil {
				_ = db.nameIdx.Delete(btreeEntry(nameKey(parent, name), tid))
				_ = db.fileIdx.Delete(btreeEntry(oidKey(file), tid))
			}
		})
	if err != nil {
		abort(vx)
		return out, err
	}
	out.merge(nstats)
	astats, err := db.fileatt.Vacuum(horizon, heap.VacuumArchive, db.archive, vx.ID(),
		func(tid heap.TID, payload []byte) {
			if a, err := decodeAttr(payload); err == nil {
				_ = db.attIdx.Delete(btreeEntry(oidKey(a.File), tid))
			}
		})
	if err != nil {
		abort(vx)
		return out, err
	}
	out.merge(astats)

	// File chunk tables: every relation named inv<oid> in the catalog.
	for _, ri := range db.cat.Relations() {
		if ri.Name != DataRelName(ri.OID) {
			continue
		}
		mode := heap.VacuumArchive
		if attr, _, err := db.getAttr(snap, ri.OID); err == nil && attr.NoHistory() {
			mode = heap.VacuumDiscard
		}
		tree, err := db.chunkTreeForFile(snap, ri.OID)
		rel := db.dataRel(ri.OID)
		if err != nil {
			abort(vx)
			return out, err
		}
		stats, err := rel.Vacuum(horizon, mode, db.archive, vx.ID(),
			func(tid heap.TID, payload []byte) {
				if tree == nil {
					return
				}
				if chunkno, _, err := decodeChunk(payload); err == nil {
					_ = tree.Delete(btreeEntry(chunkKey(chunkno), tid))
				}
			})
		if err != nil {
			abort(vx)
			return out, err
		}
		out.merge(stats)
		out.Relations++
	}
	// Metrics-history relations (when the volume has them): ticks the
	// retention ladder deleted are discarded, never archived — the
	// history relations are themselves the archive of the registry, and
	// the budget is the point of retention.
	for _, oid := range []device.OID{HistoryRel, HistorySamplesRel} {
		if _, ok := db.cat.RelationByOID(oid); !ok {
			continue
		}
		stats, err := db.dataRel(oid).Vacuum(horizon, heap.VacuumDiscard, nil, vx.ID(), nil)
		if err != nil {
			abort(vx)
			return out, err
		}
		out.merge(stats)
		out.Relations++
	}
	if err := vx.Commit(); err != nil {
		return out, err
	}
	db.recordVacuum(out, start, time.Since(start))
	return out, nil
}

func (v *VacuumStats) merge(s heap.VacuumStats) { v.VacuumStats.Add(s) }

func abort(tx *txn.Tx) { _ = tx.Abort() }

// chunkTreeForFile finds a file's chunk index tree via its attributes;
// it returns nil (no error) if the attribute row is gone (file
// unlinked) — dead chunk index entries are then left to the index's own
// emptiness.
func (db *DB) chunkTreeForFile(snap *txn.Snapshot, oid device.OID) (*btree.Tree, error) {
	attr, _, err := db.getAttr(snap, oid)
	if err != nil {
		if isNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	t, err := db.chunkTree(attr.Idx)
	if err != nil {
		return nil, err
	}
	return t, nil
}
