package device

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/iosim"
	"repro/internal/rowenc"
)

// FileDisk is a magnetic-disk device manager backed by a real file on
// the host, giving the database durability across process restarts.
// The layout mirrors the simulated Disk manager — relations are
// allocated in contiguous extents from a linear block space — with a
// metadata region at the front of the file recording the extent maps.
// An optional cost model still charges virtual time, so a persistent
// database can participate in benchmarks too.
//
// File layout:
//
//	page 0 .. metaPages-1   metadata region (see encodeMeta)
//	page metaPages + b      data block b
type FileDisk struct {
	mu          sync.Mutex
	f           *os.File
	model       *iosim.Disk
	extentPages int
	nextBlock   int64
	rels        map[OID]*diskRel
	metaDirty   bool
	metaBuf     []byte // encodeMeta's buffer, reused from Sync to Sync
}

const (
	fdMagic     = 0x494e_5644 // "INVD"
	fdMetaPages = 256         // 2 MB of metadata: ~50k extents
)

// ErrMetaFull reports that the metadata region cannot hold more extent
// map entries; the database has outgrown this backing file.
var ErrMetaFull = errors.New("device: backing file metadata region full")

// OpenFileDisk opens (or creates) a persistent disk at path. model may
// be nil to disable virtual-time accounting.
func OpenFileDisk(path string, model *iosim.Disk, extentPages int) (*FileDisk, error) {
	if extentPages <= 0 {
		extentPages = DefaultExtentPages
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	d := &FileDisk{
		f:           f,
		model:       model,
		extentPages: extentPages,
		rels:        make(map[OID]*diskRel),
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		d.metaDirty = true
		if err := d.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		return d, nil
	}
	if err := d.loadMeta(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// Close syncs metadata and closes the backing file.
func (d *FileDisk) Close() error {
	if err := d.Sync(); err != nil {
		d.f.Close()
		return err
	}
	return d.f.Close()
}

// Class reports "disk": a FileDisk is a drop-in replacement for the
// simulated magnetic disk.
func (d *FileDisk) Class() string { return "disk" }

// encodeMeta serialises the extent maps behind their length:
//
//	length(8) of what follows
//	magic(4) version(4) extentPages(4) nextBlock(8) nrels(4)
//	then per relation: oid(4) npages(4) nextents(4) extents(8 each)
//
// The whole map is encoded on every Sync that follows an Extend, so it
// goes into one buffer kept on the FileDisk (the caller holds d.mu) and
// is written from there.
func (d *FileDisk) encodeMeta() ([]byte, error) {
	le := binary.LittleEndian
	b := append(d.metaBuf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	b = le.AppendUint32(b, fdMagic)
	b = le.AppendUint32(b, 1)
	b = le.AppendUint32(b, uint32(d.extentPages))
	b = le.AppendUint64(b, uint64(d.nextBlock))
	b = le.AppendUint32(b, uint32(len(d.rels)))
	for oid, r := range d.rels {
		b = le.AppendUint32(b, uint32(oid))
		b = le.AppendUint32(b, r.npages)
		b = le.AppendUint32(b, uint32(len(r.extents)))
		for _, e := range r.extents {
			b = le.AppendUint64(b, uint64(e))
		}
	}
	d.metaBuf = b
	if len(b) > fdMetaPages*PageSize {
		return nil, ErrMetaFull
	}
	le.PutUint64(b, uint64(len(b)-8))
	return b, nil
}

func (d *FileDisk) loadMeta() error {
	var lenb [8]byte
	if _, err := d.f.ReadAt(lenb[:], 0); err != nil {
		return fmt.Errorf("device: reading backing file header: %w", err)
	}
	n := binary.LittleEndian.Uint64(lenb[:])
	if n == 0 || n > fdMetaPages*PageSize {
		return fmt.Errorf("device: backing file metadata length %d corrupt", n)
	}
	buf := make([]byte, n)
	if _, err := d.f.ReadAt(buf, 8); err != nil {
		return fmt.Errorf("device: reading backing file metadata: %w", err)
	}
	r := rowenc.NewReader(buf)
	if r.Uint32() != fdMagic {
		return errors.New("device: backing file has bad magic")
	}
	if v := r.Uint32(); v != 1 {
		return fmt.Errorf("device: backing file version %d unsupported", v)
	}
	d.extentPages = int(r.Uint32())
	d.nextBlock = int64(r.Uint64())
	nrels := int(r.Uint32())
	for i := 0; i < nrels; i++ {
		oid := OID(r.Uint32())
		rel := &diskRel{npages: r.Uint32()}
		next := int(r.Uint32())
		for e := 0; e < next; e++ {
			rel.extents = append(rel.extents, int64(r.Uint64()))
		}
		d.rels[oid] = rel
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("device: backing file metadata corrupt: %w", err)
	}
	return nil
}

func (d *FileDisk) dataOffset(block int64) int64 {
	return (int64(fdMetaPages) + block) * PageSize
}

// Create registers a new empty relation (idempotent: reopening a
// database re-places catalogued relations).
func (d *FileDisk) Create(rel OID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.rels[rel]; !ok {
		d.rels[rel] = &diskRel{}
		d.metaDirty = true
	}
	return nil
}

// Drop removes a relation's map entry; its blocks are not reclaimed.
func (d *FileDisk) Drop(rel OID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.rels[rel]; !ok {
		return ErrNoRelation
	}
	delete(d.rels, rel)
	d.metaDirty = true
	return nil
}

// NPages reports the relation's page count.
func (d *FileDisk) NPages(rel OID) (uint32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.rels[rel]
	if !ok {
		return 0, ErrNoRelation
	}
	return r.npages, nil
}

// Extend appends a zeroed page; the file stays sparse until the page is
// written.
func (d *FileDisk) Extend(rel OID) (uint32, error) {
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
	d.metaDirty = true
	return page, nil
}

// ReadPage fills buf from the backing file (zero-filling sparse holes).
func (d *FileDisk) ReadPage(rel OID, page uint32, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.rels[rel]
	if !ok {
		return ErrNoRelation
	}
	if page >= r.npages {
		return ErrNoPage
	}
	block := r.block(page, d.extentPages)
	d.model.Access(block, PageSize)
	n, err := d.f.ReadAt(buf[:PageSize], d.dataOffset(block))
	if err == io.EOF || (err == nil && n < PageSize) {
		for i := n; i < PageSize; i++ {
			buf[i] = 0
		}
		return nil
	}
	return err
}

// WritePage stores buf into the backing file.
func (d *FileDisk) WritePage(rel OID, page uint32, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.rels[rel]
	if !ok {
		return ErrNoRelation
	}
	if page >= r.npages {
		return ErrNoPage
	}
	block := r.block(page, d.extentPages)
	d.model.Access(block, PageSize)
	_, err := d.f.WriteAt(buf[:PageSize], d.dataOffset(block))
	return err
}

// Sync persists the metadata region and fsyncs the backing file — the
// stable-storage force the no-overwrite manager's commits rely on.
func (d *FileDisk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.metaDirty {
		meta, err := d.encodeMeta()
		if err != nil {
			return err
		}
		if _, err := d.f.WriteAt(meta, 0); err != nil {
			return err
		}
		d.metaDirty = false
	}
	return d.f.Sync()
}
