// Package btree implements the B-tree access method used to index chunk
// numbers within files ("In order to speed up seeks on files, Inversion
// maintains a Btree index on the chunk number attribute") and the naming
// table. Trees live on 8 KB pages reached through the shared buffer
// cache, so index I/O is charged to the same simulated devices as data
// I/O — the interleaving of index and data writes is exactly the effect
// the paper blames for Inversion's file-creation overhead.
//
// Keys are pairs of uint64s and values are uint64s (packed heap TIDs).
// Entries are ordered by the full (K1, K2, Val) triple, so duplicate
// keys are supported naturally and deletes name an exact entry. Index
// entries are retained for all record versions — old and current — and
// visibility is decided at the heap record, which is what makes
// historical reads of a file efficient.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/device"
	"repro/internal/page"
)

// Key is a composite index key.
type Key struct {
	K1, K2 uint64
}

// Entry is one index entry.
type Entry struct {
	Key Key
	Val uint64
}

// Less orders entries by the full (K1, K2, Val) triple.
func (e Entry) Less(o Entry) bool {
	if e.Key.K1 != o.Key.K1 {
		return e.Key.K1 < o.Key.K1
	}
	if e.Key.K2 != o.Key.K2 {
		return e.Key.K2 < o.Key.K2
	}
	return e.Val < o.Val
}

// Node page layout (distinct from the slotted heap format; byte 8 of a
// heap page is "lower" and never zero there, node pages tag kind at
// byte 0 of the payload area instead — node pages and heap pages never
// share a relation, so no confusion arises):
//
//	0      kind: 1 leaf, 2 internal
//	1      pad
//	2..3   count
//	4..7   leaf: right-sibling page (0 = none); internal: leftmost child
//	8..    entries
//
// Leaf entry: K1(8) K2(8) Val(8) = 24 bytes.
// Internal entry: K1(8) K2(8) Val(8) child(4) = 28 bytes; the entry's
// key is the smallest entry reachable under child.
const (
	kindLeaf     = 1
	kindInternal = 2

	nodeHeader    = 8
	leafEntrySize = 24
	intEntrySize  = 28

	maxLeafEntries = (page.Size - nodeHeader) / leafEntrySize
	maxIntEntries  = (page.Size - nodeHeader) / intEntrySize
)

// Meta page (page 0) layout.
const (
	metaMagic  = 0x42545245 // "BTRE"
	metaMagicO = 0
	metaRootO  = 4
	metaNextO  = 8 // unused, reserved
)

// ErrNotFound is returned when deleting an entry that does not exist.
var ErrNotFound = errors.New("btree: entry not found")

// Tree is a B-tree over one relation. The tree lock is an RWMutex:
// lookups and scans share it, so chunk reads and namespace resolves
// proceed in parallel; only Insert/Delete take it exclusively.
type Tree struct {
	rel  device.OID
	pool *buffer.Pool
	mu   sync.RWMutex
}

// OID reports the relation this tree's pages live in.
func (t *Tree) OID() device.OID { return t.rel }

// Open returns a tree over relation rel, initialising the meta page and
// an empty root leaf if the relation is fresh.
func Open(rel device.OID, pool *buffer.Pool) (*Tree, error) {
	t := &Tree{rel: rel, pool: pool}
	n, err := pool.NPages(rel)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		meta, mp, err := pool.NewPage(rel)
		if err != nil {
			return nil, err
		}
		if mp != 0 {
			pool.Release(meta, false)
			return nil, fmt.Errorf("btree: meta page allocated at %d, want 0", mp)
		}
		root, rp, err := pool.NewPage(rel)
		if err != nil {
			pool.Release(meta, false)
			return nil, err
		}
		root.Lock()
		root.Data[0] = kindLeaf
		root.Unlock()
		pool.Release(root, true)
		meta.Lock()
		binary.LittleEndian.PutUint32(meta.Data[metaMagicO:], metaMagic)
		binary.LittleEndian.PutUint32(meta.Data[metaRootO:], rp)
		meta.Unlock()
		pool.Release(meta, true)
	}
	return t, nil
}

func (t *Tree) rootPage() (uint32, error) {
	f, err := t.pool.Get(t.rel, 0)
	if err != nil {
		return 0, err
	}
	defer t.pool.Release(f, false)
	f.RLock()
	defer f.RUnlock()
	if binary.LittleEndian.Uint32(f.Data[metaMagicO:]) != metaMagic {
		return 0, errors.New("btree: bad meta page")
	}
	return binary.LittleEndian.Uint32(f.Data[metaRootO:]), nil
}

func (t *Tree) setRoot(pn uint32) error {
	f, err := t.pool.Get(t.rel, 0)
	if err != nil {
		return err
	}
	f.Lock()
	binary.LittleEndian.PutUint32(f.Data[metaRootO:], pn)
	f.Unlock()
	t.pool.Release(f, true)
	return nil
}

// node accessors; the caller holds the frame latch.

func nodeKind(d []byte) byte       { return d[0] }
func nodeCount(d []byte) int       { return int(binary.LittleEndian.Uint16(d[2:])) }
func setNodeCount(d []byte, n int) { binary.LittleEndian.PutUint16(d[2:], uint16(n)) }
func nodeLink(d []byte) uint32     { return binary.LittleEndian.Uint32(d[4:]) }
func setNodeLink(d []byte, v uint32) {
	binary.LittleEndian.PutUint32(d[4:], v)
}
