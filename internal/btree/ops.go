package btree

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/buffer"
)

// Tree operations work on node pages in place, under the frame latch:
// no operation builds an image of a node. The per-tree mutex means a
// node cannot change between two latch holds of one operation, so a
// reader may drop the latch before calling out and a writer may trade
// its read latch for the write latch.
//
// Leaf and internal entries differ only in size: both start with the
// 24-byte (K1, K2, Val) triple that orders them, and an internal entry
// carries its child page number after it. The helpers below therefore
// take the entry size and serve both kinds.

// entrySize reports the encoded entry size of a node of the given kind.
func entrySize(kind byte) int {
	if kind == kindInternal {
		return intEntrySize
	}
	return leafEntrySize
}

func entryOff(es, i int) int { return nodeHeader + i*es }

// decodeEntry decodes the ordering triple at the front of an entry.
func decodeEntry(b []byte) Entry {
	return Entry{
		Key: Key{binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])},
		Val: binary.LittleEndian.Uint64(b[16:]),
	}
}

func entryAt(d []byte, es, i int) Entry { return decodeEntry(d[entryOff(es, i):]) }

// record is one encoded entry, of either kind.
type record [intEntrySize]byte

func encodeRecord(e Entry, child uint32) (r record) {
	binary.LittleEndian.PutUint64(r[0:], e.Key.K1)
	binary.LittleEndian.PutUint64(r[8:], e.Key.K2)
	binary.LittleEndian.PutUint64(r[16:], e.Val)
	binary.LittleEndian.PutUint32(r[24:], child)
	return r
}

func (r *record) entry() Entry  { return decodeEntry(r[:]) }
func (r *record) child() uint32 { return binary.LittleEndian.Uint32(r[24:]) }

// checkNode validates a node's header against the page it sits on, so
// that a corrupt page is an error and not an index out of range.
func checkNode(d []byte, pn uint32) (kind byte, cnt int, err error) {
	kind, cnt = nodeKind(d), nodeCount(d)
	switch {
	case kind == kindLeaf && cnt <= maxLeafEntries:
	case kind == kindInternal && cnt <= maxIntEntries:
	case kind != kindLeaf && kind != kindInternal:
		return 0, 0, fmt.Errorf("btree: page %d has bad node kind %d", pn, kind)
	default:
		return 0, 0, fmt.Errorf("btree: page %d has bad entry count %d", pn, cnt)
	}
	return kind, cnt, nil
}

// lowerBound finds the first entry ≥ e among a node's cnt entries.
func lowerBound(d []byte, es, cnt int, e Entry) int {
	lo, hi := 0, cnt
	for lo < hi {
		mid := (lo + hi) / 2
		if entryAt(d, es, mid).Less(e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIdx picks the descent child for e in an internal node: -1 means
// the leftmost child (the node's link), otherwise entry i's child. It
// is the last separator ≤ e.
func childIdx(d []byte, cnt int, e Entry) int {
	lo, hi := 0, cnt
	for lo < hi {
		mid := (lo + hi) / 2
		if e.Less(entryAt(d, intEntrySize, mid)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo - 1
}

func childPage(d []byte, cnt int, e Entry) uint32 {
	i := childIdx(d, cnt, e)
	if i < 0 {
		return nodeLink(d)
	}
	return binary.LittleEndian.Uint32(d[entryOff(intEntrySize, i)+24:])
}

// insertRecord opens a gap at pos among cnt entries and stores rec.
func insertRecord(d []byte, es, cnt, pos int, rec *record) {
	copy(d[entryOff(es, pos+1):entryOff(es, cnt+1)], d[entryOff(es, pos):entryOff(es, cnt)])
	copy(d[entryOff(es, pos):], rec[:es])
	setNodeCount(d, cnt+1)
}

// splitInsert inserts rec at pos into the full node left (cnt entries)
// by moving its upper half to the zeroed page right. Of the cnt+1
// entries in order, left keeps the first mid; right receives those from
// mid+skip on. skip is 0 for a leaf and 1 for an internal node, whose
// entry mid is promoted to the parent instead of stored; either way
// entry mid is returned (for a leaf it is the separator, and also
// right's first entry). The bytes left gives up are zeroed, so node
// images are what writing them from scratch would produce.
func splitInsert(left, right []byte, es, cnt, pos int, rec *record, skip int) (middle record) {
	total := cnt + 1
	mid := total / 2
	// all(i) is entry i of the sequence with rec in place, read from the
	// still-untouched left page.
	all := func(i int) []byte {
		switch {
		case i == pos:
			return rec[:es]
		case i > pos:
			i--
		}
		return left[entryOff(es, i):entryOff(es, i+1)]
	}
	copy(middle[:], all(mid))
	for i := mid + skip; i < total; i++ {
		copy(right[entryOff(es, i-mid-skip):], all(i))
	}
	setNodeCount(right, total-mid-skip)
	if pos < mid {
		insertRecord(left, es, mid-1, pos, rec)
	}
	clear(left[entryOff(es, mid):entryOff(es, cnt)])
	setNodeCount(left, mid)
	return middle
}

// latched pins page pn and read-latches it.
func (t *Tree) latched(pn uint32) (*buffer.Frame, error) {
	f, err := t.pool.Get(t.rel, pn)
	if err != nil {
		return nil, err
	}
	f.RLock()
	return f, nil
}

// unlatch drops the read latch and the pin of a clean frame.
func (t *Tree) unlatch(f *buffer.Frame) {
	f.RUnlock()
	t.pool.Release(f, false)
}

// descend walks from the root to the leaf that e belongs in and returns
// it pinned and read-latched. One Get per level. If path is non-nil the
// page numbers visited, leaf included, are appended to it.
func (t *Tree) descend(e Entry, path *[]uint32) (*buffer.Frame, error) {
	pn, err := t.rootPage()
	if err != nil {
		return nil, err
	}
	for {
		f, err := t.latched(pn)
		if err != nil {
			return nil, err
		}
		kind, cnt, err := checkNode(f.Data, pn)
		if err != nil {
			t.unlatch(f)
			return nil, err
		}
		if path != nil {
			*path = append(*path, pn)
		}
		if kind == kindLeaf {
			return f, nil
		}
		pn = childPage(f.Data, cnt, e)
		t.unlatch(f)
	}
}

// descendForWrite is descend with the leaf write-latched. The read
// latch is traded for the write latch with a gap in between, which the
// tree mutex (held exclusively by every writer) makes harmless.
func (t *Tree) descendForWrite(e Entry, path *[]uint32) (*buffer.Frame, error) {
	f, err := t.descend(e, path)
	if err != nil {
		return nil, err
	}
	f.RUnlock()
	f.Lock()
	return f, nil
}

// newNodePage extends the tree by one zeroed page of the given kind and
// link, returned pinned and write-latched.
func (t *Tree) newNodePage(kind byte, link uint32) (*buffer.Frame, uint32, error) {
	f, pn, err := t.pool.NewPage(t.rel)
	if err != nil {
		return nil, 0, err
	}
	f.Lock()
	f.Data[0] = kind
	setNodeLink(f.Data, link)
	return f, pn, nil
}

// unlock drops the write latch and the pin of a modified frame.
func (t *Tree) unlock(f *buffer.Frame) {
	f.Unlock()
	t.pool.Release(f, true)
}

// unlockBoth does that for the two halves of a split, the new page
// first (the order the seed released them in, which is their LRU
// order), with both latches gone before the pool is called.
func (t *Tree) unlockBoth(fresh, old *buffer.Frame) {
	fresh.Unlock()
	old.Unlock()
	t.pool.Release(fresh, true)
	t.pool.Release(old, true)
}

// Insert adds entry e. It reports whether the entry was added (false if
// the exact entry already existed, making Insert idempotent).
func (t *Tree) Insert(e Entry) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()

	var pathBuf [8]uint32
	path := pathBuf[:0]
	leaf, err := t.descendForWrite(e, &path)
	if err != nil {
		return false, err
	}
	d := leaf.Data
	cnt := nodeCount(d)
	pos := lowerBound(d, leafEntrySize, cnt, e)
	if pos < cnt && entryAt(d, leafEntrySize, pos) == e {
		leaf.Unlock()
		t.pool.Release(leaf, false)
		return false, nil
	}
	rec := encodeRecord(e, 0)
	if cnt < maxLeafEntries {
		insertRecord(d, leafEntrySize, cnt, pos, &rec)
		t.unlock(leaf)
		return true, nil
	}

	// Split the leaf: the upper half moves to a new right sibling, whose
	// first entry goes up as the separator. The pool is not called with
	// a latch held, so the latch is dropped around NewPage; the pin and
	// the tree mutex keep the leaf as it is meanwhile.
	link := nodeLink(d)
	leaf.Unlock()
	right, rightPN, err := t.newNodePage(kindLeaf, link)
	if err != nil {
		t.pool.Release(leaf, false)
		return false, err
	}
	leaf.Lock()
	sep := splitInsert(d, right.Data, leafEntrySize, cnt, pos, &rec, 0)
	setNodeLink(d, rightPN)
	t.unlockBoth(right, leaf)

	// Propagate the separator up the path.
	childPN := rightPN
	for lvl := len(path) - 2; lvl >= 0; lvl-- {
		in, err := t.pool.Get(t.rel, path[lvl])
		if err != nil {
			return false, err
		}
		in.Lock()
		d := in.Data
		cnt := nodeCount(d)
		rec := encodeRecord(sep.entry(), childPN)
		ipos := childIdx(d, cnt, sep.entry()) + 1
		if cnt < maxIntEntries {
			insertRecord(d, intEntrySize, cnt, ipos, &rec)
			t.unlock(in)
			return true, nil
		}
		// Split the internal node; the middle entry is promoted and its
		// child becomes the new node's leftmost.
		in.Unlock()
		iright, irightPN, err := t.newNodePage(kindInternal, 0)
		if err != nil {
			t.pool.Release(in, false)
			return false, err
		}
		in.Lock()
		sep = splitInsert(d, iright.Data, intEntrySize, cnt, ipos, &rec, 1)
		setNodeLink(iright.Data, sep.child())
		t.unlockBoth(iright, in)
		childPN = irightPN
	}

	// The root itself split: grow the tree by one level.
	root, rootPN, err := t.newNodePage(kindInternal, path[0])
	if err != nil {
		return false, err
	}
	rec = encodeRecord(sep.entry(), childPN)
	insertRecord(root.Data, intEntrySize, 0, 0, &rec)
	t.unlock(root)
	return true, t.setRoot(rootPN)
}

// Delete removes the exact entry e. Underfull nodes are left in place
// (deletes come only from the vacuum cleaner, and lazy deletion keeps
// the tree simple, as in many production B-trees).
func (t *Tree) Delete(e Entry) error {
	t.mu.Lock()
	defer t.mu.Unlock()

	leaf, err := t.descendForWrite(e, nil)
	if err != nil {
		return err
	}
	d := leaf.Data
	cnt := nodeCount(d)
	pos := lowerBound(d, leafEntrySize, cnt, e)
	if pos >= cnt || entryAt(d, leafEntrySize, pos) != e {
		leaf.Unlock()
		t.pool.Release(leaf, false)
		return ErrNotFound
	}
	end := entryOff(leafEntrySize, cnt)
	copy(d[entryOff(leafEntrySize, pos):end], d[entryOff(leafEntrySize, pos+1):end])
	clear(d[end-leafEntrySize : end])
	setNodeCount(d, cnt-1)
	t.unlock(leaf)
	return nil
}

// Entries are handed to callbacks with no latch and no pin held (a
// callback may go back into the buffer pool, or into this tree), so a
// leaf's entries are first copied out: to a small array on the stack,
// or, when a leaf yields more than that, to a leaf-sized array from
// batches.
const smallBatch = 16

var batches = sync.Pool{New: func() any { return new([maxLeafEntries]Entry) }}

// Ascend calls fn for every entry ≥ start (ordered), until fn returns
// false.
func (t *Tree) Ascend(start Key, fn func(Entry) bool) error {
	return t.scan(Entry{Key: start}, false, fn)
}

// Lookup calls fn for every entry whose key equals k.
func (t *Tree) Lookup(k Key, fn func(Entry) bool) error {
	return t.scan(Entry{Key: k}, true, fn)
}

// scan calls fn for the entries ≥ lower in order until fn returns
// false; with sameKey set it also stops at the first entry whose key is
// not lower's.
func (t *Tree) scan(lower Entry, sameKey bool, fn func(Entry) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()

	leaf, err := t.descend(lower, nil)
	if err != nil {
		return err
	}
	var small [smallBatch]Entry
	var big *[maxLeafEntries]Entry
	defer func() {
		if big != nil {
			batches.Put(big)
		}
	}()
	pos := lowerBound(leaf.Data, leafEntrySize, nodeCount(leaf.Data), lower)
	for {
		d := leaf.Data
		cnt := nodeCount(d)
		n, last := cnt-pos, false
		if sameKey {
			for n = 0; pos+n < cnt && entryAt(d, leafEntrySize, pos+n).Key == lower.Key; n++ {
			}
			last = pos+n < cnt
		}
		batch := small[:]
		if n > len(small) {
			if big == nil {
				big = batches.Get().(*[maxLeafEntries]Entry)
			}
			batch = big[:]
		}
		for i := 0; i < n; i++ {
			batch[i] = entryAt(d, leafEntrySize, pos+i)
		}
		next := nodeLink(d)
		t.unlatch(leaf)
		for _, e := range batch[:n] {
			if !fn(e) {
				return nil
			}
		}
		if last || next == 0 {
			return nil
		}
		if leaf, err = t.latched(next); err != nil {
			return err
		}
		if kind, _, err := checkNode(leaf.Data, next); err != nil || kind != kindLeaf {
			t.unlatch(leaf)
			if err == nil {
				err = fmt.Errorf("btree: leaf chain reaches internal page %d", next)
			}
			return err
		}
		pos = 0
	}
}

// Len counts all entries (test helper; O(n)).
func (t *Tree) Len() (int, error) {
	total := 0
	err := t.Ascend(Key{}, func(Entry) bool { total++; return true })
	return total, err
}

// CheckInvariants walks the tree verifying ordering and separator
// correctness; tests call it after randomised workloads.
func (t *Tree) CheckInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	root, err := t.rootPage()
	if err != nil {
		return err
	}
	_, _, err = t.check(root, nil, nil)
	return err
}

// check verifies the subtree at pn lies within (lo, hi]; it returns the
// subtree's min and max entries. An internal node stays pinned while
// its children are checked, but not latched: the latch is taken to read
// each separator and dropped before descending.
func (t *Tree) check(pn uint32, lo, hi *Entry) (minE, maxE *Entry, err error) {
	f, err := t.latched(pn)
	if err != nil {
		return nil, nil, err
	}
	latched := true
	defer func() {
		if latched {
			f.RUnlock()
		}
		t.pool.Release(f, false)
	}()
	d := f.Data
	kind, cnt, err := checkNode(d, pn)
	if err != nil {
		return nil, nil, err
	}
	es := entrySize(kind)
	for i := 0; i < cnt; i++ {
		e := entryAt(d, es, i)
		if kind == kindLeaf {
			if lo != nil && e.Less(*lo) {
				return nil, nil, fmt.Errorf("btree: entry %v below bound %v on page %d", e, *lo, pn)
			}
			if hi != nil && !e.Less(*hi) {
				return nil, nil, fmt.Errorf("btree: entry %v not below bound %v on page %d", e, *hi, pn)
			}
		}
		if i > 0 && !entryAt(d, es, i-1).Less(e) {
			if kind == kindLeaf {
				return nil, nil, fmt.Errorf("btree: leaf %d out of order at %d", pn, i)
			}
			return nil, nil, fmt.Errorf("btree: internal %d separators out of order", pn)
		}
	}
	if kind == kindLeaf {
		if cnt == 0 {
			return nil, nil, nil
		}
		first, last := entryAt(d, es, 0), entryAt(d, es, cnt-1)
		return &first, &last, nil
	}
	childLo := lo
	for i := -1; i < cnt; i++ {
		child := nodeLink(d)
		var sep Entry
		if i >= 0 {
			sep = entryAt(d, es, i)
			child = binary.LittleEndian.Uint32(d[entryOff(es, i)+24:])
			childLo = &sep
		}
		childHi := hi
		if i+1 < cnt {
			next := entryAt(d, es, i+1)
			childHi = &next
		}
		f.RUnlock()
		latched = false
		mn, _, err := t.check(child, childLo, childHi)
		if err != nil {
			return nil, nil, err
		}
		f.RLock()
		latched = true
		if i >= 0 && mn != nil && mn.Less(sep) {
			return nil, nil, fmt.Errorf("btree: separator %v above child min %v", sep, *mn)
		}
	}
	return nil, nil, nil
}
