// Package heap implements the no-overwrite heap storage manager. When a
// record is updated or deleted, the original record is marked invalid
// (its xmax is stamped) but remains in place; updates append a new
// record. Combined with the transaction status file this yields MVCC
// reads, fine-grained time travel, and crash recovery with no log
// processing [STON87].
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/device"
	"repro/internal/page"
	"repro/internal/txn"
)

// Record header stored in front of every payload on a page:
//
//	0..3  xmin — inserting transaction
//	4..7  xmax — deleting transaction (0 while live)
//	8..9  flags (reserved)
//	10..11 pad
const recordHeader = 12

// MaxPayload is the largest record payload a page can hold.
const MaxPayload = page.MaxItem - recordHeader

// Errors returned by the heap layer.
var (
	ErrNotVisible   = errors.New("heap: record not visible to snapshot")
	ErrNoRecord     = errors.New("heap: no such record")
	ErrTooLarge     = errors.New("heap: record payload exceeds page capacity")
	ErrWriteClash   = errors.New("heap: record already deleted by a committed transaction")
	ErrReadOnlySnap = errors.New("heap: snapshot is read-only")
)

// TID addresses a record: page number plus slot within the page.
type TID struct {
	Page uint32
	Slot uint16
}

// Pack encodes the TID into a uint64 (for storage in index entries).
func (t TID) Pack() uint64 { return uint64(t.Page)<<16 | uint64(t.Slot) }

// UnpackTID decodes a TID packed with Pack.
func UnpackTID(v uint64) TID {
	return TID{Page: uint32(v >> 16), Slot: uint16(v & 0xffff)}
}

func (t TID) String() string { return fmt.Sprintf("(%d,%d)", t.Page, t.Slot) }

// Relation is one heap table. A relation has one handle per pool: the
// handle remembers which pages a scan may pass over, and only its own
// inserts correct that.
type Relation struct {
	OID  device.OID
	pool *buffer.Pool
	mgr  *txn.Manager

	mu         sync.Mutex
	insertHint uint32 // page that last accepted an insert
	haveHint   bool

	// spent maps a page on which every record has been deleted by a
	// committed transaction to the newest of those transactions. No
	// snapshot taken after they all ended can see anything there, so a
	// scan under one passes the page over without reading it: without
	// this a scan costs a page read for every version ever written, not
	// for the live ones. A record laid down in the page drops the entry.
	// Entries are written with the page's latch held, spentMu inside it.
	spentMu sync.Mutex
	spent   map[uint32]txn.XID
}

// Open returns a handle on relation oid. The relation must already be
// placed on a device.
func Open(oid device.OID, pool *buffer.Pool, mgr *txn.Manager) *Relation {
	return &Relation{OID: oid, pool: pool, mgr: mgr}
}

// NPages reports the relation's current page count.
func (r *Relation) NPages() (uint32, error) { return r.pool.NPages(r.OID) }

// Insert appends a record stamped with inserting transaction x and
// returns its TID.
func (r *Relation) Insert(x txn.XID, payload []byte) (TID, error) {
	return r.InsertParts(x, payload)
}

// InsertParts is Insert for a payload that exists in pieces (a chunk
// row is a small header and the caller's data): the record is laid down
// inside the page, header and parts one after another, so the bytes are
// copied once and no record image is built first.
func (r *Relation) InsertParts(x txn.XID, parts ...[]byte) (TID, error) {
	size := recordHeader
	for _, part := range parts {
		size += len(part)
	}
	if size > recordHeader+MaxPayload {
		return TID{}, ErrTooLarge
	}

	r.mu.Lock()
	defer r.mu.Unlock()

	// place writes the record into f's page if it fits.
	place := func(f *buffer.Frame, pn uint32) int {
		f.Lock()
		defer f.Unlock()
		if !f.Data.Initialized() {
			page.Init(f.Data, uint32(r.OID), pn)
		}
		slot, item := f.Data.Reserve(size)
		if slot < 0 {
			return -1
		}
		r.spentMu.Lock()
		delete(r.spent, pn)
		r.spentMu.Unlock()
		binary.LittleEndian.PutUint32(item[0:], uint32(x))
		clear(item[4:recordHeader])
		item = item[recordHeader:]
		for _, part := range parts {
			item = item[copy(item, part):]
		}
		return slot
	}

	// Try the hinted page, then the last page, then extend.
	n, err := r.pool.NPages(r.OID)
	if err != nil {
		return TID{}, err
	}
	var candidates [2]uint32
	nc := 0
	if r.haveHint && r.insertHint < n {
		candidates[nc] = r.insertHint
		nc++
	}
	if n > 0 && (nc == 0 || candidates[0] != n-1) {
		candidates[nc] = n - 1
		nc++
	}
	for _, pn := range candidates[:nc] {
		f, err := r.pool.Get(r.OID, pn)
		if err != nil {
			return TID{}, err
		}
		slot := place(f, pn)
		r.pool.Release(f, slot >= 0)
		if slot >= 0 {
			r.insertHint, r.haveHint = pn, true
			return TID{Page: pn, Slot: uint16(slot)}, nil
		}
	}
	f, pn, err := r.pool.NewPage(r.OID)
	if err != nil {
		return TID{}, err
	}
	slot := place(f, pn)
	r.pool.Release(f, true)
	if slot < 0 {
		return TID{}, ErrTooLarge
	}
	r.insertHint, r.haveHint = pn, true
	return TID{Page: pn, Slot: uint16(slot)}, nil
}

// Delete stamps the record at tid as deleted by x. The record body is
// untouched — this is the no-overwrite discipline. Deleting a record
// whose previous deleter aborted re-stamps it; deleting one whose
// deleter committed (or is a live competitor) reports ErrWriteClash.
func (r *Relation) Delete(x txn.XID, tid TID) error {
	f, err := r.pool.Get(r.OID, tid.Page)
	if err != nil {
		return err
	}
	defer r.pool.Release(f, true)
	f.Lock()
	defer f.Unlock()
	item := f.Data.Item(int(tid.Slot))
	if item == nil {
		return ErrNoRecord
	}
	oldMax := txn.XID(binary.LittleEndian.Uint32(item[4:]))
	if oldMax != txn.InvalidXID && oldMax != x {
		switch r.mgr.StatusOf(oldMax) {
		case txn.StatusCommitted, txn.StatusInProgress:
			return ErrWriteClash
		}
	}
	binary.LittleEndian.PutUint32(item[4:], uint32(x))
	return nil
}

// Update replaces the record at tid: the old version is stamped deleted
// by x and a new version is inserted, returning the new TID.
func (r *Relation) Update(x txn.XID, tid TID, payload []byte) (TID, error) {
	if err := r.Delete(x, tid); err != nil {
		return TID{}, err
	}
	return r.Insert(x, payload)
}

// UpdateInPlace is Update with a same-transaction fast path: when the
// version at tid was created by x itself and no one has stamped it, it
// is overwritten in place (same-size payloads only — the slot cannot
// grow) and the same TID is returned, meaning the caller must not add
// another index entry. An uncommitted version is invisible to every
// snapshot but its own transaction's, and that transaction can only
// ever see its newest state, so collapsing intermediate
// same-transaction versions preserves the no-overwrite discipline for
// everything a snapshot could observe. Rows a transaction rewrites k
// times (a directory's mtime under a create storm) would otherwise
// chain k versions and k index entries per commit, and every later
// reader would walk the whole chain.
func (r *Relation) UpdateInPlace(x txn.XID, tid TID, payload []byte) (TID, error) {
	if len(payload) <= MaxPayload {
		f, err := r.pool.Get(r.OID, tid.Page)
		if err != nil {
			return TID{}, err
		}
		f.Lock()
		item := f.Data.Item(int(tid.Slot))
		if item != nil && len(item) == recordHeader+len(payload) {
			xmin := txn.XID(binary.LittleEndian.Uint32(item[0:]))
			xmax := txn.XID(binary.LittleEndian.Uint32(item[4:]))
			if xmin == x && xmax == txn.InvalidXID {
				copy(item[recordHeader:], payload)
				f.Unlock()
				r.pool.Release(f, true)
				return tid, nil
			}
		}
		f.Unlock()
		r.pool.Release(f, false)
	}
	return r.Update(x, tid, payload)
}

// View calls fn with the record payload at tid if it is visible to
// snap; otherwise it returns ErrNotVisible (or ErrNoRecord if the slot
// is dead) without calling fn. The payload is the page's own bytes,
// lent under the frame's read latch: fn must not keep the slice or
// anything aliasing it past its return, must not write through it, and
// must not call into the buffer pool (a second latch or an eviction
// under the first is how a borrowed page deadlocks or goes stale).
func (r *Relation) View(snap *txn.Snapshot, tid TID, fn func(payload []byte) error) error {
	f, err := r.pool.Get(r.OID, tid.Page)
	if err != nil {
		return err
	}
	defer r.pool.Release(f, false)
	f.RLock()
	defer f.RUnlock()
	item := f.Data.Item(int(tid.Slot))
	if item == nil {
		return ErrNoRecord
	}
	xmin := txn.XID(binary.LittleEndian.Uint32(item[0:]))
	xmax := txn.XID(binary.LittleEndian.Uint32(item[4:]))
	if !snap.CanSee(xmin, xmax) {
		return ErrNotVisible
	}
	return fn(item[recordHeader:])
}

// Fetch returns a copy of the record payload at tid if it is visible to
// snap; otherwise ErrNotVisible (or ErrNoRecord if the slot is dead).
// The copy is the caller's to keep.
func (r *Relation) Fetch(snap *txn.Snapshot, tid TID) ([]byte, error) {
	var out []byte
	err := r.View(snap, tid, func(payload []byte) error {
		out = make([]byte, len(payload))
		copy(out, payload)
		return nil
	})
	return out, err
}

// RelStats is a cheap physical profile of one relation, for the
// inv_relations catalog. Live and dead are estimates from the raw
// stamps alone — a record is counted dead as soon as any transaction
// has stamped its xmax, without consulting the status log — so a
// concurrent writer's uncommitted deletes show up as dead immediately.
type RelStats struct {
	Pages int // initialized pages
	Live  int // records with no deleter stamped (xmax == 0)
	Dead  int // records with a deleter stamped (vacuum candidates)
}

// TupleStats walks the relation once (read latches only, one page at a
// time) and reports its page and tuple counts.
func (r *Relation) TupleStats() (RelStats, error) {
	var st RelStats
	n, err := r.pool.NPages(r.OID)
	if err != nil {
		return st, err
	}
	for pn := uint32(0); pn < n; pn++ {
		f, err := r.pool.Get(r.OID, pn)
		if err != nil {
			return st, err
		}
		f.RLock()
		if f.Data.Initialized() {
			st.Pages++
			for s := 0; s < f.Data.NumSlots(); s++ {
				item := f.Data.Item(s)
				if item == nil {
					continue
				}
				if txn.XID(binary.LittleEndian.Uint32(item[4:])) == txn.InvalidXID {
					st.Live++
				} else {
					st.Dead++
				}
			}
		}
		f.RUnlock()
		r.pool.Release(f, false)
	}
	return st, nil
}

// pageBatch is one page's records copied out for a scan: payloads back
// to back in buf, one entry per record. A scan owns one for its whole
// run and refills it page by page.
type pageBatch struct {
	buf  []byte
	recs []batchRec
}

type batchRec struct {
	slot       uint16
	xmin, xmax txn.XID
	end        int // payload is buf[previous end:end]
}

var pageBatches = sync.Pool{New: func() any { return new(pageBatch) }}

// Scan calls fn for every record visible to snap, in physical order.
// fn returns stop=true to end the scan early. The payload is borrowed:
// it points into a buffer the scan refills for the next page, so fn
// copies or decodes what it keeps before it returns and writes nothing
// through it. No latch or pin is held while fn runs — it may call back
// into the buffer pool, this relation included.
func (r *Relation) Scan(snap *txn.Snapshot, fn func(tid TID, payload []byte) (stop bool, err error)) error {
	return r.scan(snap, func(tid TID, _, _ txn.XID, payload []byte) (bool, error) { return fn(tid, payload) })
}

// scan walks the relation one page at a time: under the page's read
// latch it copies the records snap can see (every record when snap is
// nil) into the batch, drops latch and pin, and only then calls fn. A
// page found spent is noted, and passed over from then on by every
// snapshot that sees all its deleters.
func (r *Relation) scan(snap *txn.Snapshot, fn func(tid TID, xmin, xmax txn.XID, payload []byte) (stop bool, err error)) error {
	n, err := r.pool.NPages(r.OID)
	if err != nil {
		return err
	}
	b := pageBatches.Get().(*pageBatch)
	defer pageBatches.Put(b)
	for pn := uint32(0); pn < n; pn++ {
		if snap != nil {
			r.spentMu.Lock()
			newest, spent := r.spent[pn]
			r.spentMu.Unlock()
			if spent && snap.SeesAllThrough(newest) {
				continue
			}
		}
		f, err := r.pool.Get(r.OID, pn)
		if err != nil {
			return err
		}
		b.buf, b.recs = b.buf[:0], b.recs[:0]
		f.RLock()
		if f.Data.Initialized() {
			spent, newest := true, txn.InvalidXID
			for s := 0; s < f.Data.NumSlots(); s++ {
				item := f.Data.Item(s)
				if item == nil {
					continue
				}
				xmin := txn.XID(binary.LittleEndian.Uint32(item[0:]))
				xmax := txn.XID(binary.LittleEndian.Uint32(item[4:]))
				if spent {
					if xmax == txn.InvalidXID || r.mgr.StatusOf(xmax) != txn.StatusCommitted {
						spent = false
					} else if xmax > newest {
						newest = xmax
					}
				}
				if snap != nil && !snap.CanSee(xmin, xmax) {
					continue
				}
				b.buf = append(b.buf, item[recordHeader:]...)
				b.recs = append(b.recs, batchRec{uint16(s), xmin, xmax, len(b.buf)})
			}
			if spent {
				r.spentMu.Lock()
				if r.spent == nil {
					r.spent = make(map[uint32]txn.XID)
				}
				r.spent[pn] = newest
				r.spentMu.Unlock()
			}
		}
		f.RUnlock()
		r.pool.Release(f, false)
		start := 0
		for _, rec := range b.recs {
			stop, err := fn(TID{pn, rec.slot}, rec.xmin, rec.xmax, b.buf[start:rec.end:rec.end])
			if err != nil {
				return err
			}
			if stop {
				return nil
			}
			start = rec.end
		}
	}
	return nil
}
