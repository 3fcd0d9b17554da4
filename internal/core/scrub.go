package core

import (
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/device"
	"repro/internal/heap"
	"repro/internal/page"
	"repro/internal/txn"
)

// Media scrubbing. The paper: "The only difficulties arise when the
// physical storage medium is damaged, or when garbage has been written
// to the medium by hardware or software failures. Inversion could
// detect these cases by making all blocks self-identifying; every block
// could be tagged with its file identifier and block number." Every
// heap page here carries that tag, and CheckMedia verifies it against
// stable storage.

// Corruption describes one damaged page found by CheckMedia.
type Corruption struct {
	Rel    device.OID
	Page   uint32
	Reason string
}

func (c Corruption) String() string {
	return fmt.Sprintf("relation %d page %d: %s", c.Rel, c.Page, c.Reason)
}

// MediaReport summarises a scrub pass.
type MediaReport struct {
	Relations    int
	PagesChecked int
	Corrupt      []Corruption
}

// OK reports whether the medium verified clean.
func (r MediaReport) OK() bool { return len(r.Corrupt) == 0 }

// CheckMedia reads every heap page of every catalogued relation (plus
// the fixed system relations) directly from stable storage and verifies
// the self-identifying header. Dirty pages are flushed first so the
// device contents are current. Index relations use the B-tree node
// format and are verified structurally by btree.CheckInvariants
// instead.
func (db *DB) CheckMedia() (MediaReport, error) {
	var rep MediaReport
	if err := db.pool.FlushAll(); err != nil {
		return rep, err
	}
	rels := []device.OID{NamingRel, FileAttRel, ArchiveRel,
		catalog.RelationsRel, catalog.TypesRel, catalog.FunctionsRel}
	for _, ri := range db.cat.Relations() {
		if ri.Kind == catalog.KindHeap {
			rels = append(rels, ri.OID)
		}
	}
	buf := make(page.Page, page.Size)
	for _, rel := range rels {
		n, err := db.sw.NPages(rel)
		if err != nil {
			// A catalogued relation whose storage is gone is itself a
			// media fault.
			rep.Corrupt = append(rep.Corrupt, Corruption{Rel: rel, Reason: err.Error()})
			continue
		}
		rep.Relations++
		for pn := uint32(0); pn < n; pn++ {
			if err := db.sw.ReadPage(rel, pn, buf); err != nil {
				rep.Corrupt = append(rep.Corrupt, Corruption{rel, pn, err.Error()})
				continue
			}
			rep.PagesChecked++
			if !buf.Initialized() {
				continue // never-written extension page
			}
			if buf.Rel() != uint32(rel) {
				rep.Corrupt = append(rep.Corrupt, Corruption{rel, pn,
					fmt.Sprintf("self-ident relation %d, want %d", buf.Rel(), rel)})
				continue
			}
			if buf.Block() != pn {
				rep.Corrupt = append(rep.Corrupt, Corruption{rel, pn,
					fmt.Sprintf("self-ident block %d, want %d", buf.Block(), pn)})
			}
		}
	}
	return rep, nil
}

// ScrubReport is the result of a full integrity pass: the media scrub
// plus structural checks of every B-tree, the namespace cross-links,
// every file's chunk records, and the transaction log. It is the
// torture harness's verifier and, over the wire, an operator tool.
type ScrubReport struct {
	Media          MediaReport
	IndexesChecked int
	FilesChecked   int
	ChunksChecked  int
	Problems       []string
}

// OK reports whether the database verified clean.
func (r ScrubReport) OK() bool { return r.Media.OK() && len(r.Problems) == 0 }

// Summary renders the report in one line.
func (r ScrubReport) Summary() string {
	return fmt.Sprintf("scrub: %d pages, %d indexes, %d files, %d chunks checked; %d media faults, %d problems",
		r.Media.PagesChecked, r.IndexesChecked, r.FilesChecked, r.ChunksChecked,
		len(r.Media.Corrupt), len(r.Problems))
}

func (r *ScrubReport) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Scrub runs the full read-only integrity pass over the latest
// committed state:
//
//   - the media scrub (self-identifying page headers against stable
//     storage),
//   - structural invariants of every B-tree (node kinds, key order,
//     child separators),
//   - namespace cross-checks: every visible naming row resolves to a
//     live attribute row, parents exist and are directories, and the
//     name and file indexes can find the row,
//   - chunk well-formedness for every visible file: records decode, no
//     chunk exceeds ChunkSize, no visible chunk lies wholly beyond the
//     file's size, and each is reachable through the chunk index,
//   - the transaction log: no committed transaction without a commit
//     time (the torn-force state recovery repairs at open).
//
// Scrub takes no locks; it reads under a current snapshot, so running
// it against a live database may report transient problems if writers
// race it. The torture harness runs it on a quiesced, freshly recovered
// database, where any problem is real.
func (db *DB) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	media, err := db.CheckMedia()
	if err != nil {
		return rep, err
	}
	rep.Media = media

	// Structural B-tree invariants: the namespace indexes plus every
	// catalogued chunk index.
	type namedTree struct {
		name string
		tree *btree.Tree
	}
	idxTrees := []namedTree{
		{"naming_name_idx", db.nameIdx},
		{"naming_file_idx", db.fileIdx},
		{"fileatt_idx", db.attIdx},
	}
	for _, ri := range db.cat.Relations() {
		if ri.Kind != catalog.KindIndex {
			continue
		}
		t, err := db.chunkTree(ri.OID)
		if err != nil {
			rep.problemf("index %s (oid %d): open: %v", ri.Name, ri.OID, err)
			continue
		}
		idxTrees = append(idxTrees, namedTree{ri.Name, t})
	}
	for _, it := range idxTrees {
		rep.IndexesChecked++
		if err := it.tree.CheckInvariants(); err != nil {
			rep.problemf("index %s: %v", it.name, err)
		}
	}

	// Transaction log: a committed XID with no commit time is the torn
	// commit force recovery heals; seeing one here means the log on this
	// live instance is in that state right now.
	for _, x := range db.mgr.Log().CheckZeroTimes() {
		rep.problemf("txn log: committed xid %d has no commit time", x)
	}

	// Namespace and chunk checks under one current snapshot.
	snap := db.mgr.CurrentSnapshot()
	type nameRow struct {
		name   string
		parent device.OID
		file   device.OID
	}
	var rows []nameRow
	err = db.naming.Scan(snap, func(_ heap.TID, rec []byte) (bool, error) {
		name, parent, file, err := decodeNaming(rec)
		if err != nil {
			rep.problemf("naming: undecodable row: %v", err)
			return false, nil
		}
		rows = append(rows, nameRow{name, parent, file})
		return false, nil
	})
	if err != nil {
		return rep, err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].file < rows[j].file })
	dirs := make(map[device.OID]bool)
	attrs := make(map[device.OID]FileAttr)
	for _, row := range rows {
		attr, _, err := db.getAttr(snap, row.file)
		if err != nil {
			rep.problemf("file %q (oid %d): naming row has no attribute row: %v",
				row.name, row.file, err)
			continue
		}
		attrs[row.file] = attr
		if attr.IsDir() {
			dirs[row.file] = true
		}
	}
	for _, row := range rows {
		if row.parent == 0 {
			if row.name != "/" {
				rep.problemf("file %q (oid %d): parent 0 but not the root", row.name, row.file)
			}
			continue
		}
		if !dirs[row.parent] {
			rep.problemf("file %q (oid %d): parent %d is not a visible directory",
				row.name, row.file, row.parent)
		}
		// The lookup indexes must find the row the scan found.
		if oid, _, err := db.lookupChild(snap, row.parent, row.name); err != nil || oid != row.file {
			rep.problemf("file %q (oid %d): name index lookup failed (got oid %d, err %v)",
				row.name, row.file, oid, err)
		}
	}

	// Chunk well-formedness, file by file.
	for _, row := range rows {
		attr, ok := attrs[row.file]
		if !ok || attr.IsDir() {
			continue
		}
		rep.FilesChecked++
		db.scrubChunks(&rep, snap, row.name, attr)
	}
	return rep, nil
}

// scrubChunks verifies one file's visible chunk records: decodable, in
// bounds, and reachable through the chunk index.
func (db *DB) scrubChunks(rep *ScrubReport, snap *txn.Snapshot, name string, attr FileAttr) {
	idx, err := db.chunkTree(attr.Idx)
	if err != nil {
		rep.problemf("file %q: chunk index %d: %v", name, attr.Idx, err)
		return
	}
	data := db.dataRel(attr.File)
	err = data.Scan(snap, func(tid heap.TID, rec []byte) (bool, error) {
		rep.ChunksChecked++
		no, payload, err := decodeChunk(rec)
		if err != nil {
			rep.problemf("file %q: chunk at %s: undecodable: %v", name, tid, err)
			return false, nil
		}
		limit := ChunkSize
		if attr.Compressed() {
			limit = ChunkSize + compressOverhead
		}
		if len(payload) > limit {
			rep.problemf("file %q: chunk %d: payload %d exceeds %d bytes", name, no, len(payload), limit)
		}
		if int64(no)*ChunkSize >= attr.Size {
			rep.problemf("file %q: visible chunk %d lies wholly beyond size %d", name, no, attr.Size)
		}
		// The index must be able to reach this visible record.
		gotTID, found, err := db.viewVisible(idx, btree.Key{K1: uint64(no)}, data, snap,
			func(r []byte) (bool, error) {
				n2, _, err := decodeChunk(r)
				return err == nil && n2 == no, nil
			})
		if err != nil || !found || gotTID != tid {
			rep.problemf("file %q: chunk %d at %s unreachable via index (found=%v tid=%v err=%v)",
				name, no, tid, found, gotTID, err)
		}
		return false, nil
	})
	if err != nil {
		rep.problemf("file %q: chunk scan: %v", name, err)
	}
}
