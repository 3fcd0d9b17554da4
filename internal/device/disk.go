package device

import (
	"sync"

	"repro/internal/iosim"
)

// DefaultExtentPages is how many physically contiguous pages a disk or
// jukebox extent holds. The paper: the Sony jukebox "allocates tables in
// units of extents … the extent size is tunable … but defaults to 16
// pages"; the same clustering strategy is used here for magnetic disk so
// that data within one relation stays sequential (the cylinder-group
// effect of the underlying UNIX FFS the paper's disk manager relied on).
const DefaultExtentPages = 16

type diskRel struct {
	extents []int64 // starting block address of each extent
	npages  uint32
}

// Disk is the magnetic disk device manager. Pages live in memory (this
// is a simulation), but every access is charged to a mechanical disk
// model: relations are laid out in contiguous extents carved from a
// linear block address space, so intra-relation scans are sequential
// while interleaved access across relations pays seeks — the effect the
// paper blames for Inversion's file-creation overhead.
type Disk struct {
	mu          sync.Mutex
	model       *iosim.Disk
	extentPages int
	nextBlock   int64
	rels        map[OID]*diskRel
	pages       map[OID][][]byte
}

// NewDisk returns a magnetic disk manager charging costs to model
// (which may be nil to disable accounting).
func NewDisk(model *iosim.Disk, extentPages int) *Disk {
	if extentPages <= 0 {
		extentPages = DefaultExtentPages
	}
	return &Disk{
		model:       model,
		extentPages: extentPages,
		rels:        make(map[OID]*diskRel),
		pages:       make(map[OID][][]byte),
	}
}

// Class reports "disk".
func (d *Disk) Class() string { return "disk" }

// Create registers a new empty relation.
func (d *Disk) Create(rel OID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.rels[rel]; !ok {
		d.rels[rel] = &diskRel{}
		d.pages[rel] = nil
	}
	return nil
}

// Drop removes a relation. Its blocks are not reused: 1993 FFS-era
// allocators rarely compacted, and leaking simulated blocks only makes
// the address space sparser.
func (d *Disk) Drop(rel OID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.rels[rel]; !ok {
		return ErrNoRelation
	}
	delete(d.rels, rel)
	delete(d.pages, rel)
	return nil
}

// NPages reports the relation's page count.
func (d *Disk) NPages(rel OID) (uint32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.rels[rel]
	if !ok {
		return 0, ErrNoRelation
	}
	return r.npages, nil
}

// Extend appends a zeroed page, allocating a new extent when the last
// one is full.
func (d *Disk) Extend(rel OID) (uint32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.rels[rel]
	if !ok {
		return 0, ErrNoRelation
	}
	if int(r.npages) >= len(r.extents)*d.extentPages {
		r.extents = append(r.extents, d.nextBlock)
		d.nextBlock += int64(d.extentPages)
	}
	page := r.npages
	r.npages++
	d.pages[rel] = append(d.pages[rel], make([]byte, PageSize))
	return page, nil
}

// block maps a relation page number to its linear block address.
func (r *diskRel) block(page uint32, extentPages int) int64 {
	ext := int(page) / extentPages
	off := int(page) % extentPages
	return r.extents[ext] + int64(off)
}

// ReadPage copies a page into buf, charging disk mechanics.
func (d *Disk) ReadPage(rel OID, page uint32, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.rels[rel]
	if !ok {
		return ErrNoRelation
	}
	if page >= r.npages {
		return ErrNoPage
	}
	d.model.Access(r.block(page, d.extentPages), PageSize)
	copy(buf, d.pages[rel][page])
	return nil
}

// WritePage stores buf into a page, charging disk mechanics.
func (d *Disk) WritePage(rel OID, page uint32, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.rels[rel]
	if !ok {
		return ErrNoRelation
	}
	if page >= r.npages {
		return ErrNoPage
	}
	d.model.Access(r.block(page, d.extentPages), PageSize)
	copy(d.pages[rel][page], buf)
	return nil
}

// Sync is a no-op: pages are written through in this model.
func (d *Disk) Sync() error { return nil }
