package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/btree"
	"repro/internal/device"
	"repro/internal/heap"
	"repro/internal/txn"
)

// DirEntry is one row of a directory listing.
type DirEntry struct {
	Name string
	File device.OID
	Attr FileAttr
}

// SplitPath normalises an absolute path into components. "/" yields an
// empty slice.
func SplitPath(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("%w: %q (paths are absolute)", ErrBadPath, path)
	}
	var parts []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		case "..":
			if len(parts) > 0 {
				parts = parts[:len(parts)-1]
			}
		default:
			parts = append(parts, c)
		}
	}
	return parts, nil
}

var versionChains = sync.Pool{New: func() any { return new([]uint64) }}

// viewVisible finds the record a key's index entries point at that is
// both visible to snap and accepted by fn (the index key may be a hash,
// so fn resolves collisions), and reports its TID. Entries are probed
// newest-first — the visible version of a hot row is almost always the
// most recently inserted one, and update-heavy rows can have thousands
// of dead versions below it.
//
// fn sees each candidate payload on loan from the page it lives on, on
// heap.View's terms: it decodes or copies what it wants while it runs,
// keeps nothing that aliases the payload, and makes no call that could
// reach the buffer pool. It returns true for the record it was looking
// for, which ends the search.
//
// For historical snapshots, a miss falls through to the vacuum archive:
// the vacuum cleaner moves obsolete records there rather than losing
// them ("If time travel is desired, the records must be saved forever
// somewhere"), so time travel keeps working across vacuums. Archived
// hits return a zero TID — history is never updated in place.
func (db *DB) viewVisible(tree *btree.Tree, key btree.Key, rel *heap.Relation, snap *txn.Snapshot,
	fn func(payload []byte) (bool, error)) (heap.TID, bool, error) {
	// Most keys have a handful of versions, which fit on the stack; the
	// rest of a long chain (a busy directory's attribute row gains a
	// version per create) goes to a pooled slice instead of growing a
	// new one on every lookup.
	var few [8]uint64
	var more *[]uint64
	n := 0
	err := tree.Lookup(key, func(e btree.Entry) bool {
		switch {
		case n < len(few):
			few[n] = e.Val
		case more == nil:
			more = versionChains.Get().(*[]uint64)
			*more = append((*more)[:0], e.Val)
		default:
			*more = append(*more, e.Val)
		}
		n++
		return true
	})
	if more != nil {
		defer versionChains.Put(more)
	}
	if err != nil {
		return heap.TID{}, false, err
	}
	for i := n - 1; i >= 0; i-- {
		var val uint64
		if i < len(few) {
			val = few[i]
		} else {
			val = (*more)[i-len(few)]
		}
		tid := heap.UnpackTID(val)
		var ok bool
		err := rel.View(snap, tid, func(payload []byte) (err error) {
			ok, err = fn(payload)
			return err
		})
		if err != nil {
			if errors.Is(err, heap.ErrNotVisible) || errors.Is(err, heap.ErrNoRecord) {
				continue
			}
			return heap.TID{}, false, err
		}
		if ok {
			return tid, true, nil
		}
	}
	if snap.Historical() {
		found, err := db.archiveLookup(rel.OID, snap.AsOfTime(), fn)
		return heap.TID{}, found, err
	}
	return heap.TID{}, false, nil
}

// archiveLookup scans the vacuum archive for a record of relation rel
// that was live at time asof and that fn accepts.
func (db *DB) archiveLookup(rel device.OID, asof int64, fn func(payload []byte) (bool, error)) (bool, error) {
	var (
		found   bool
		scanErr error
	)
	err := db.archive.Scan(db.mgr.CurrentSnapshot(), func(_ heap.TID, rec []byte) (bool, error) {
		h, payload, ok := heap.DecodeArchive(rec)
		if !ok || h.Rel != uint32(rel) {
			return false, nil
		}
		if h.XminTime == 0 || h.XminTime > asof {
			return false, nil
		}
		if h.XmaxTime != 0 && h.XmaxTime <= asof {
			return false, nil
		}
		found, scanErr = fn(payload)
		return found || scanErr != nil, nil
	})
	if err != nil {
		return false, err
	}
	return found && scanErr == nil, scanErr
}

// lookupChild finds the file OID bound to name inside directory parent,
// using the naming index and verifying against the naming heap (the
// index key is a hash, so collisions are resolved by checking the
// actual row).
func (db *DB) lookupChild(snap *txn.Snapshot, parent device.OID, name string) (device.OID, heap.TID, error) {
	var fileOID device.OID
	tid, found, err := db.viewVisible(db.nameIdx, nameKey(parent, name), db.naming, snap,
		func(payload []byte) (bool, error) {
			gotName, gotParent, file, err := decodeNaming(payload)
			if err != nil {
				return false, err
			}
			fileOID = file
			return gotName == name && gotParent == parent, nil
		})
	if err != nil {
		return 0, heap.TID{}, err
	}
	if !found {
		return 0, heap.TID{}, ErrNotExist
	}
	return fileOID, tid, nil
}

// Resolve walks an absolute path to its file OID under snap: one
// snapshot for the whole walk, one index probe per component. The walk is
// optimistic — it probes the child binding directly and only fetches
// the parent's attributes to classify a miss (is the parent not a
// directory, or does the child not exist?). This is sound because a
// naming row only ever exists under a verified directory: mkdir/create
// check the parent's type before binding, directories are never
// retyped, and OIDs are never reused — so a successful child probe
// proves the parent was a directory without a second index probe.
func (db *DB) Resolve(snap *txn.Snapshot, path string) (device.OID, error) {
	parts, err := SplitPath(path)
	if err != nil {
		return 0, err
	}
	cur := RootDirOID
	for i, name := range parts {
		oid, _, lerr := db.lookupChild(snap, cur, name)
		if lerr == nil {
			cur = oid
			continue
		}
		if !isNotExist(lerr) {
			return 0, fmt.Errorf("%w: %q", lerr, path)
		}
		// Miss: classify against the parent before reporting.
		attr, _, err := db.getAttr(snap, cur)
		if err != nil {
			return 0, err
		}
		if !attr.IsDir() {
			return 0, fmt.Errorf("%w: /%s", ErrNotDirectory, strings.Join(parts[:i], "/"))
		}
		return 0, fmt.Errorf("%w: %q", lerr, path)
	}
	return cur, nil
}

// getAttr fetches the visible fileatt row for a file OID.
func (db *DB) getAttr(snap *txn.Snapshot, oid device.OID) (FileAttr, heap.TID, error) {
	var attr FileAttr
	tid, found, err := db.viewVisible(db.attIdx, oidKey(oid), db.fileatt, snap,
		func(payload []byte) (ok bool, err error) {
			attr, err = decodeAttr(payload)
			return err == nil && attr.File == oid, err
		})
	if err != nil {
		return FileAttr{}, heap.TID{}, err
	}
	if !found {
		return FileAttr{}, heap.TID{}, ErrNotExist
	}
	return attr, tid, nil
}

// updateAttr rewrites a file's attribute row under tx (no-overwrite:
// new version inserted, old stamped, index entry added for the new
// TID).
func (db *DB) updateAttr(tx *txn.Tx, snap *txn.Snapshot, oid device.OID, mutate func(*FileAttr)) error {
	attr, tid, err := db.getAttr(snap, oid)
	if err != nil {
		return err
	}
	mutate(&attr)
	newTID, err := db.fileatt.UpdateInPlace(tx.ID(), tid, encodeAttr(attr))
	if err != nil {
		return err
	}
	if newTID == tid {
		return nil // same-tx in-place rewrite: index entry already points here
	}
	_, err = db.attIdx.Insert(btree.Entry{Key: oidKey(oid), Val: newTID.Pack()})
	return err
}

// addNaming inserts a naming row plus its index entries.
func (db *DB) addNaming(xid txn.XID, name string, parent, file device.OID) error {
	tid, err := db.naming.Insert(xid, encodeNaming(name, parent, file))
	if err != nil {
		return err
	}
	if _, err := db.nameIdx.Insert(btree.Entry{Key: nameKey(parent, name), Val: tid.Pack()}); err != nil {
		return err
	}
	_, err = db.fileIdx.Insert(btree.Entry{Key: oidKey(file), Val: tid.Pack()})
	return err
}

// addAttr inserts a new file's fileatt row plus its index entry.
func (db *DB) addAttr(xid txn.XID, attr FileAttr) error {
	tid, err := db.fileatt.Insert(xid, encodeAttr(attr))
	if err != nil {
		return err
	}
	_, err = db.attIdx.Insert(btree.Entry{Key: oidKey(attr.File), Val: tid.Pack()})
	return err
}

// NamingEntry reports the visible naming row for a file OID: its name
// and parent directory, found through the file index.
func (db *DB) NamingEntry(snap *txn.Snapshot, oid device.OID) (name string, parent device.OID, tid heap.TID, err error) {
	tid, found, err := db.viewVisible(db.fileIdx, oidKey(oid), db.naming, snap,
		func(payload []byte) (ok bool, err error) {
			var fileOID device.OID
			name, parent, fileOID, err = decodeNaming(payload)
			return err == nil && fileOID == oid, err
		})
	if err != nil {
		return "", 0, heap.TID{}, err
	}
	if !found {
		return "", 0, heap.TID{}, ErrNotExist
	}
	return name, parent, tid, nil
}

// PathOf reconstructs the absolute path of a file OID ("Inversion
// includes routines … to construct pathnames for particular file
// identifiers").
func (db *DB) PathOf(snap *txn.Snapshot, oid device.OID) (string, error) {
	if oid == RootDirOID {
		return "/", nil
	}
	var parts []string
	cur := oid
	for cur != RootDirOID {
		name, parent, _, err := db.NamingEntry(snap, cur)
		if err != nil {
			return "", err
		}
		parts = append(parts, name)
		cur = parent
		if len(parts) > 4096 {
			return "", fmt.Errorf("%w: naming cycle at oid %d", ErrBadPath, oid)
		}
	}
	// Reverse.
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return "/" + strings.Join(parts, "/"), nil
}

// ReadDir lists the visible entries of a directory, sorted by name.
func (db *DB) ReadDir(snap *txn.Snapshot, dir device.OID) ([]DirEntry, error) {
	attr, _, err := db.getAttr(snap, dir)
	if err != nil {
		return nil, err
	}
	if !attr.IsDir() {
		return nil, ErrNotDirectory
	}
	seen := make(map[device.OID]bool)
	var out []DirEntry
	var scanErr error
	err = db.nameIdx.Ascend(btree.Key{K1: uint64(dir)}, func(e btree.Entry) bool {
		if e.Key.K1 != uint64(dir) {
			return false
		}
		tid := heap.UnpackTID(e.Val)
		payload, ferr := db.naming.Fetch(snap, tid)
		if ferr != nil {
			return true
		}
		name, parent, fileOID, derr := decodeNaming(payload)
		if derr != nil {
			scanErr = derr
			return false
		}
		if parent != dir || seen[fileOID] {
			return true
		}
		seen[fileOID] = true
		fa, _, aerr := db.getAttr(snap, fileOID)
		if aerr != nil {
			// Attribute row missing (e.g. partially created): skip.
			return true
		}
		out = append(out, DirEntry{Name: name, File: fileOID, Attr: fa})
		return true
	})
	if err != nil {
		return nil, err
	}
	if scanErr != nil {
		return nil, scanErr
	}
	// Historical listings must also surface entries whose naming rows
	// were vacuumed into the archive since then.
	if snap.Historical() {
		asof := snap.AsOfTime()
		err := db.archive.Scan(db.mgr.CurrentSnapshot(), func(_ heap.TID, rec []byte) (bool, error) {
			h, payload, ok := heap.DecodeArchive(rec)
			if !ok || h.Rel != uint32(NamingRel) {
				return false, nil
			}
			if h.XminTime == 0 || h.XminTime > asof || (h.XmaxTime != 0 && h.XmaxTime <= asof) {
				return false, nil
			}
			name, parent, fileOID, derr := decodeNaming(payload)
			if derr != nil || parent != dir || seen[fileOID] {
				return false, nil
			}
			seen[fileOID] = true
			fa, _, aerr := db.getAttr(snap, fileOID)
			if aerr != nil {
				return false, nil
			}
			out = append(out, DirEntry{Name: name, File: fileOID, Attr: fa})
			return false, nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ForEachFile iterates every visible naming row — the range the query
// engine's retrieve statements run over, and the probe side of its
// naming ⋈ fileatt join (FileJoin is the build side).
func (db *DB) ForEachFile(snap *txn.Snapshot, fn func(name string, parent, oid device.OID) error) error {
	return db.naming.Scan(snap, func(_ heap.TID, payload []byte) (bool, error) {
		name, parent, oid, err := decodeNaming(payload)
		if err != nil {
			return false, err
		}
		return false, fn(name, parent, oid)
	})
}

// splitDirBase resolves the directory part of path and returns its OID
// plus the final component.
func (db *DB) splitDirBase(snap *txn.Snapshot, path string) (device.OID, string, error) {
	parts, err := SplitPath(path)
	if err != nil {
		return 0, "", err
	}
	if len(parts) == 0 {
		return 0, "", fmt.Errorf("%w: %q has no final component", ErrBadPath, path)
	}
	dirPath := "/" + strings.Join(parts[:len(parts)-1], "/")
	dir, err := db.Resolve(snap, dirPath)
	if err != nil {
		return 0, "", err
	}
	attr, _, err := db.getAttr(snap, dir)
	if err != nil {
		return 0, "", err
	}
	if !attr.IsDir() {
		return 0, "", fmt.Errorf("%w: %q", ErrNotDirectory, dirPath)
	}
	return dir, parts[len(parts)-1], nil
}

// lockName takes an exclusive lock on a (directory, name) binding so
// concurrent creates/unlinks of the same entry serialise. The key mixes
// the parent OID with the name hash, so the same name in two
// directories gets two tags and neither queues on the other.
func (db *DB) lockName(tx *txn.Tx, parent device.OID, name string) error {
	return tx.Lock(txn.LockTag{
		Space: txn.SpaceName,
		Rel:   NamingRel,
		Key:   mix64(uint64(parent)) ^ nameKey(parent, name).K2,
	}, txn.LockExclusive)
}

// mix64 is the splitmix64 finalizer, a cheap bijective scrambler.
// Unmixed, directory OIDs handed out in order differ in a few low bits,
// and two names whose hashes differed in just those bits would share a
// lock key across the two directories.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// writeSnap returns the current-read snapshot mutations use to locate
// the row versions they supersede: latest committed state plus the
// transaction's own changes. Transaction-start snapshots would miss
// commits that landed between transaction start and lock acquisition.
func (db *DB) writeSnap(tx *txn.Tx) *txn.Snapshot {
	return db.mgr.CurrentSnapshotFor(tx.ID())
}

// MkdirTx creates a directory under an explicit transaction.
func (db *DB) MkdirTx(tx *txn.Tx, path, owner string) (device.OID, error) {
	snap := db.writeSnap(tx)
	parent, name, err := db.splitDirBase(snap, path)
	if err != nil {
		return 0, err
	}
	if err := db.lockName(tx, parent, name); err != nil {
		return 0, err
	}
	snap = db.writeSnap(tx) // re-read after the lock serialised us
	if _, _, err := db.lookupChild(snap, parent, name); err == nil {
		return 0, fmt.Errorf("%w: %q", ErrExist, path)
	} else if !isNotExist(err) {
		return 0, err
	}
	oid := db.cat.AllocOID()
	if err := db.addNaming(tx.ID(), name, parent, oid); err != nil {
		return 0, err
	}
	now := db.mgr.TimeSource()
	attr := FileAttr{
		File: oid, Owner: owner, Type: TypeDirectory,
		CTime: now, MTime: now, ATime: now,
	}
	if err := db.addAttr(tx.ID(), attr); err != nil {
		return 0, err
	}
	if err := db.touchMTime(tx, snap, parent); err != nil {
		return 0, err
	}
	return oid, nil
}

// touchMTime bumps a directory's modification time. The directory's
// attribute row is a hotspot every create/unlink in it rewrites, so it
// is guarded by its own metadata lock and located via a current read.
func (db *DB) touchMTime(tx *txn.Tx, _ *txn.Snapshot, dir device.OID) error {
	if err := tx.Lock(txn.LockTag{Space: txn.SpaceMeta, Rel: dir}, txn.LockExclusive); err != nil {
		return err
	}
	now := db.mgr.TimeSource()
	return db.updateAttr(tx, db.writeSnap(tx), dir, func(a *FileAttr) { a.MTime = now })
}

// UnlinkTx removes a file or empty directory binding. The file's data
// relation and old record versions remain in the database, which is
// what makes undelete-via-time-travel possible.
func (db *DB) UnlinkTx(tx *txn.Tx, path string) error {
	snap := db.writeSnap(tx)
	parent, name, err := db.splitDirBase(snap, path)
	if err != nil {
		return err
	}
	if err := db.lockName(tx, parent, name); err != nil {
		return err
	}
	snap = db.writeSnap(tx)
	oid, namingTID, err := db.lookupChild(snap, parent, name)
	if err != nil {
		return fmt.Errorf("%w: %q", err, path)
	}
	attr, attrTID, err := db.getAttr(snap, oid)
	if err != nil {
		return err
	}
	if attr.IsDir() {
		entries, err := db.ReadDir(snap, oid)
		if err != nil {
			return err
		}
		if len(entries) > 0 {
			return fmt.Errorf("%w: %q", ErrNotEmpty, path)
		}
	} else {
		// Serialise with writers of the file.
		if err := tx.Lock(txn.LockTag{Space: txn.SpaceRelation, Rel: oid}, txn.LockExclusive); err != nil {
			return err
		}
	}
	if err := db.naming.Delete(tx.ID(), namingTID); err != nil {
		return err
	}
	if err := db.fileatt.Delete(tx.ID(), attrTID); err != nil {
		return err
	}
	return db.touchMTime(tx, snap, parent)
}

// RenameTx moves a binding to a new path (same database). The file
// keeps its OID and its fileatt row; only the naming row changes. The
// old row's delete and the new row's insert ride one transaction, so
// no snapshot sees the binding at both paths or at neither.
func (db *DB) RenameTx(tx *txn.Tx, oldPath, newPath string) error {
	snap := db.writeSnap(tx)
	oldParent, oldName, err := db.splitDirBase(snap, oldPath)
	if err != nil {
		return err
	}
	newParent, newName, err := db.splitDirBase(snap, newPath)
	if err != nil {
		return err
	}
	// Old binding first, then new; two renames crossing the same pair
	// in opposite directions can close a lock cycle, which the deadlock
	// detector resolves by aborting one (callers retry on ErrDeadlock).
	if err := db.lockName(tx, oldParent, oldName); err != nil {
		return err
	}
	if err := db.lockName(tx, newParent, newName); err != nil {
		return err
	}
	snap = db.writeSnap(tx)
	oid, namingTID, err := db.lookupChild(snap, oldParent, oldName)
	if err != nil {
		return fmt.Errorf("%w: %q", err, oldPath)
	}
	if _, _, err := db.lookupChild(snap, newParent, newName); err == nil {
		return fmt.Errorf("%w: %q", ErrExist, newPath)
	} else if !isNotExist(err) {
		return err
	}
	if err := db.naming.Delete(tx.ID(), namingTID); err != nil {
		return err
	}
	if err := db.addNaming(tx.ID(), newName, newParent, oid); err != nil {
		return err
	}
	if err := db.touchMTime(tx, snap, oldParent); err != nil {
		return err
	}
	if newParent != oldParent {
		return db.touchMTime(tx, snap, newParent)
	}
	return nil
}

func isNotExist(err error) bool { return errors.Is(err, ErrNotExist) }
