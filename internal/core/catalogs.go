package core

import (
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
// relations and vacuum history when it is scanned.

// registerGauges publishes the gauges core owns: catalog sizes and the
// transaction manager's horizon, commit clock and status cache. The
// buffer pool publishes its own (Pool.SetObs).
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
}

// relationsCatalog is inv_relations: the fixed system heaps, the
// namespace heaps and indexes, and every catalogued relation,
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
				oid        device.OID
				name, kind string
			}{
				{catalog.RelationsRel, "pg_relations", "heap"},
				{catalog.TypesRel, "pg_types", "heap"},
				{catalog.FunctionsRel, "pg_functions", "heap"},
				{ArchiveRel, "archive", "heap"},
				{NamingRel, "naming", "heap"},
				{FileAttRel, "fileatt", "heap"},
				{NameIdxRel, "naming_name_idx", "index"},
				{FileIdxRel, "naming_file_idx", "index"},
				{AttIdxRel, "fileatt_idx", "index"},
			}
			for _, f := range fixed {
				if err := add(f.oid, f.name, f.kind); err != nil {
					return err
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
