package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/device"
	"repro/internal/sysview"
	"repro/internal/txn"
	"repro/internal/value"
)

// The engine's own statistics as the registry and the catalogs see
// them. Nothing here keeps a copy: each gauge is a function over the
// state that owns the value, and each catalog below reads core's
// relations, shard counters and vacuum history when it is scanned.

// registerGauges publishes the gauges core owns: catalog sizes, the
// transaction manager's horizon, commit clock and status cache, and
// the namespace shards' traffic counters. The buffer pool publishes its
// own (Pool.SetObs).
func (db *DB) registerGauges() {
	m := db.metrics
	m.GaugeFunc("catalog.relations", func() int64 { return int64(len(db.cat.Relations())) })
	m.GaugeFunc("catalog.types", func() int64 { return int64(len(db.cat.Types())) })
	m.GaugeFunc("catalog.functions", func() int64 { return int64(len(db.cat.Functions())) })
	m.GaugeFunc("txn.horizon_xid", func() int64 { return int64(db.mgr.Horizon()) })
	m.GaugeFunc("txn.last_commit_unix_ns", db.mgr.LastCommitTime)
	m.GaugeFunc("txn.checkpoint_xid", func() int64 { return int64(db.log.CheckpointXID()) })
	// The committed-XID cache: lock-free visibility checks.
	m.GaugeFunc("txn.status_cache_hits", func() int64 { h, _ := db.mgr.StatusCacheStats(); return h })
	m.GaugeFunc("txn.status_cache_misses", func() int64 { _, n := db.mgr.StatusCacheStats(); return n })
	m.GaugeFunc("namespace.shards", func() int64 { return int64(db.ns.n) })
	for _, s := range db.ns.shards {
		pre := fmt.Sprintf("namespace.shard%d.", s.id)
		m.GaugeFunc(pre+"lookups", s.lookups.Load)
		m.GaugeFunc(pre+"hits", s.hits.Load)
		m.GaugeFunc(pre+"inserts", s.inserts.Load)
		m.GaugeFunc(pre+"removes", s.removes.Load)
		m.GaugeFunc(pre+"renames", s.renames.Load)
		m.GaugeFunc(pre+"cross_renames", s.crossRenames.Load)
		m.GaugeFunc(pre+"lock_waits", s.lockWaits.Load)
	}
}

// relationsCatalog is inv_relations: the fixed system heaps, the
// namespace shards' heaps and indexes, and every catalogued relation,
// in OID order. Heap relations get full tuple statistics from a
// one-pass scan; index relations report page counts only (their pages
// are not record-formatted).
func (db *DB) relationsCatalog() *sysview.Rel {
	return &sysview.Rel{
		Name: "inv_relations",
		Doc:  "heap relations: page counts and live/dead tuple estimates",
		Columns: []sysview.Column{
			{Name: "oid", Kind: value.KindInt, Doc: "relation OID"},
			{Name: "name", Kind: value.KindString, Doc: "relation name"},
			{Name: "kind", Kind: value.KindString, Doc: "heap or index"},
			{Name: "pages", Kind: value.KindInt, Doc: "initialized pages"},
			{Name: "live", Kind: value.KindInt, Doc: "tuples with no deleter stamped"},
			{Name: "dead", Kind: value.KindInt, Doc: "tuples with a deleter stamped (vacuum candidates)"},
		},
		Scan: func(_ *txn.Snapshot, emit func([]value.V) error) error {
			var rows [][]value.V
			add := func(oid device.OID, name, kind string) error {
				var pages, live, dead int64
				if kind == "heap" {
					st, err := db.dataRel(oid).TupleStats()
					if err != nil {
						return err
					}
					pages, live, dead = int64(st.Pages), int64(st.Live), int64(st.Dead)
				} else if n, err := db.pool.NPages(oid); err == nil {
					pages = int64(n)
				}
				rows = append(rows, []value.V{value.Int(int64(oid)), value.Str(name), value.Str(kind),
					value.Int(pages), value.Int(live), value.Int(dead)})
				return nil
			}
			fixed := []struct {
				oid  device.OID
				name string
			}{
				{catalog.RelationsRel, "pg_relations"},
				{catalog.TypesRel, "pg_types"},
				{catalog.FunctionsRel, "pg_functions"},
				{ArchiveRel, "archive"},
			}
			for _, f := range fixed {
				if err := add(f.oid, f.name, "heap"); err != nil {
					return err
				}
			}
			for i, s := range db.ns.shards {
				for _, r := range []struct {
					oid        device.OID
					name, kind string
				}{
					{s.naming.OID, "naming", "heap"},
					{s.fileatt.OID, "fileatt", "heap"},
					{s.nameIdx.OID(), "naming_name_idx", "index"},
					{s.fileIdx.OID(), "naming_file_idx", "index"},
					{s.attIdx.OID(), "fileatt_idx", "index"},
				} {
					if err := add(r.oid, shardName(i, r.name), r.kind); err != nil {
						return err
					}
				}
			}
			for _, ri := range db.cat.Relations() {
				var err error
				switch ri.Kind {
				case catalog.KindHeap:
					err = add(ri.OID, ri.Name, "heap")
				case catalog.KindIndex:
					err = add(ri.OID, ri.Name, "index")
				}
				if err != nil {
					return err
				}
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i][0].I < rows[j][0].I })
			for _, r := range rows {
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// maxVacuumRuns bounds the in-memory vacuum history inv_vacuum serves.
const maxVacuumRuns = 32

// vacuumCatalog is inv_vacuum: the recent vacuum runs recordVacuum
// keeps, newest first.
func (db *DB) vacuumCatalog() *sysview.Rel {
	return &sysview.Rel{
		Name: "inv_vacuum",
		Doc:  "recent vacuum runs, newest first",
		Columns: []sysview.Column{
			{Name: "start_unix_ns", Kind: value.KindInt, Doc: "wall-clock start of the run"},
			{Name: "duration_ns", Kind: value.KindInt, Doc: "wall-clock duration"},
			{Name: "relations", Kind: value.KindInt, Doc: "relations vacuumed"},
			{Name: "pages", Kind: value.KindInt, Doc: "pages scanned"},
			{Name: "scanned", Kind: value.KindInt, Doc: "tuples examined"},
			{Name: "archived", Kind: value.KindInt, Doc: "tuples moved to the archive"},
			{Name: "removed", Kind: value.KindInt, Doc: "tuples reclaimed (slots freed)"},
			{Name: "reclaimed_bytes", Kind: value.KindInt, Doc: "bytes recovered by page compaction"},
		},
		Scan: func(_ *txn.Snapshot, emit func([]value.V) error) error {
			db.vacMu.Lock()
			runs := db.vacRuns // rows are never modified once recorded
			db.vacMu.Unlock()
			for _, r := range runs {
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// recordVacuum publishes a completed run to the metrics registry (the
// vacuum.* counters /metrics scrapes) and to the bounded history that
// inv_vacuum serves, as that catalog's row.
func (db *DB) recordVacuum(s VacuumStats, start time.Time, dur time.Duration) {
	m := db.metrics
	m.Counter("vacuum.runs").Inc()
	m.Counter("vacuum.pages_scanned").Add(int64(s.Pages))
	m.Counter("vacuum.tuples_scanned").Add(int64(s.Scanned))
	m.Counter("vacuum.tuples_archived").Add(int64(s.Archived))
	m.Counter("vacuum.tuples_removed").Add(int64(s.Removed))
	m.Counter("vacuum.bytes_reclaimed").Add(int64(s.Reclaimed))

	row := []value.V{
		value.Int(start.UnixNano()), value.Int(int64(dur)), value.Int(int64(s.Relations)),
		value.Int(int64(s.Pages)), value.Int(int64(s.Scanned)), value.Int(int64(s.Archived)),
		value.Int(int64(s.Removed)), value.Int(int64(s.Reclaimed)),
	}
	db.vacMu.Lock()
	db.vacRuns = append([][]value.V{row}, db.vacRuns[:min(len(db.vacRuns), maxVacuumRuns-1)]...)
	db.vacMu.Unlock()
}

// namespaceCatalog is inv_stat_namespace: one row per namespace shard
// plus a merged "all" row, mirroring inv_stat_buffer's shape. Row
// counts come from a heap scan of the shard's naming and fileatt
// relations; the traffic counters are the shard's own.
func (db *DB) namespaceCatalog() *sysview.Rel {
	return &sysview.Rel{
		Name: "inv_stat_namespace",
		Doc:  "namespace metadata shards: row counts, routing traffic, and lock contention",
		Columns: []sysview.Column{
			{Name: "shard", Kind: value.KindString, Doc: "shard index 00..15, or 'all' for the merged row"},
			{Name: "naming_oid", Kind: value.KindInt, Doc: "the shard's naming heap OID (0 in the merged row)"},
			{Name: "fileatt_oid", Kind: value.KindInt, Doc: "the shard's fileatt heap OID (0 in the merged row)"},
			{Name: "naming_live", Kind: value.KindInt, Doc: "live naming rows"},
			{Name: "naming_dead", Kind: value.KindInt, Doc: "dead naming rows (vacuum candidates)"},
			{Name: "fileatt_live", Kind: value.KindInt, Doc: "live fileatt rows"},
			{Name: "fileatt_dead", Kind: value.KindInt, Doc: "dead fileatt rows"},
			{Name: "lookups", Kind: value.KindInt, Doc: "name lookups routed to this shard"},
			{Name: "hits", Kind: value.KindInt, Doc: "lookups that found a visible row"},
			{Name: "inserts", Kind: value.KindInt, Doc: "naming rows added"},
			{Name: "removes", Kind: value.KindInt, Doc: "naming rows deleted"},
			{Name: "renames", Kind: value.KindInt, Doc: "renames sourced in this shard"},
			{Name: "cross_renames", Kind: value.KindInt, Doc: "renames that moved the row to another shard"},
			{Name: "lock_waits", Kind: value.KindInt, Doc: "name-lock acquisitions that queued here"},
		},
		Scan: func(_ *txn.Snapshot, emit func([]value.V) error) error {
			row := func(label string, namingOID, fileattOID device.OID, vals []int64) []value.V {
				r := []value.V{value.Str(label), value.Int(int64(namingOID)), value.Int(int64(fileattOID))}
				for _, v := range vals {
					r = append(r, value.Int(v))
				}
				return r
			}
			total := make([]int64, 11)
			for _, s := range db.ns.shards {
				nst, err := s.naming.TupleStats()
				if err != nil {
					return err
				}
				ast, err := s.fileatt.TupleStats()
				if err != nil {
					return err
				}
				vals := []int64{
					int64(nst.Live), int64(nst.Dead), int64(ast.Live), int64(ast.Dead),
					s.lookups.Load(), s.hits.Load(), s.inserts.Load(), s.removes.Load(),
					s.renames.Load(), s.crossRenames.Load(), s.lockWaits.Load(),
				}
				for i, v := range vals {
					total[i] += v
				}
				if err := emit(row(fmt.Sprintf("%02d", s.id), s.naming.OID, s.fileatt.OID, vals)); err != nil {
					return err
				}
			}
			return emit(row("all", 0, 0, total))
		},
	}
}
