// Package page implements the 8 KB slotted data page used by every
// relation in the system. A page holds variable-length items addressed
// by slot number; the slot array grows from the front while item bytes
// grow from the back, exactly like a POSTGRES heap page. The first 16
// bytes carry a self-identifying header (relation OID and block number):
// the paper notes that "space has been reserved in the tables storing
// file data" to make all blocks self-identifying so media corruption can
// be detected.
package page

import "encoding/binary"

// Size is the page size in bytes, shared with the device layer.
const Size = 8192

// Header layout (little endian):
//
//	0..3   relation OID (self-identification)
//	4..7   block number (self-identification)
//	8..9   lower: byte offset one past the end of the slot array
//	10..11 upper: byte offset of the lowest item byte
//	12..13 nslots
//	14..15 flags (reserved)
//
// Slots are 4 bytes each: {offset uint16, length uint16}. A slot with
// length 0 is dead and its space is reclaimable by Compact.
const (
	headerSize = 16
	slotSize   = 4
)

// MaxItem is the largest item that fits on an empty page.
const MaxItem = Size - headerSize - slotSize

// Page is an 8 KB byte slice interpreted as a slotted page. The zero
// page (all zero bytes) is not valid; call Init first.
type Page []byte

// Init formats p as an empty page belonging to the given relation and
// block.
func Init(p Page, rel uint32, block uint32) {
	for i := range p {
		p[i] = 0
	}
	binary.LittleEndian.PutUint32(p[0:], rel)
	binary.LittleEndian.PutUint32(p[4:], block)
	p.setLower(headerSize)
	p.setUpper(Size)
	p.setNSlots(0)
}

// Initialized reports whether p has been formatted (upper is nonzero on
// any formatted page and zero on a fresh device page).
func (p Page) Initialized() bool { return p.upper() != 0 }

// Rel reports the self-identifying relation OID stamped on the page.
func (p Page) Rel() uint32 { return binary.LittleEndian.Uint32(p[0:]) }

// Block reports the self-identifying block number stamped on the page.
func (p Page) Block() uint32 { return binary.LittleEndian.Uint32(p[4:]) }

// SetIdent restamps the self-identification header.
func (p Page) SetIdent(rel, block uint32) {
	binary.LittleEndian.PutUint32(p[0:], rel)
	binary.LittleEndian.PutUint32(p[4:], block)
}

func (p Page) lower() int      { return int(binary.LittleEndian.Uint16(p[8:])) }
func (p Page) setLower(v int)  { binary.LittleEndian.PutUint16(p[8:], uint16(v)) }
func (p Page) upper() int      { return int(binary.LittleEndian.Uint16(p[10:])) }
func (p Page) setUpper(v int)  { binary.LittleEndian.PutUint16(p[10:], uint16(v)) }
func (p Page) nslots() int     { return int(binary.LittleEndian.Uint16(p[12:])) }
func (p Page) setNSlots(v int) { binary.LittleEndian.PutUint16(p[12:], uint16(v)) }

// NumSlots reports the number of slots ever allocated on the page,
// including dead ones.
func (p Page) NumSlots() int { return p.nslots() }

// FreeSpace reports how many bytes remain for one more item (item bytes
// plus its slot).
func (p Page) FreeSpace() int {
	free := p.upper() - p.lower() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

func (p Page) slotAt(i int) (off, ln int) {
	base := headerSize + i*slotSize
	return int(binary.LittleEndian.Uint16(p[base:])), int(binary.LittleEndian.Uint16(p[base+2:]))
}

func (p Page) setSlot(i, off, ln int) {
	base := headerSize + i*slotSize
	binary.LittleEndian.PutUint16(p[base:], uint16(off))
	binary.LittleEndian.PutUint16(p[base+2:], uint16(ln))
}

// Insert stores item and returns its slot number. It returns -1 if the
// page lacks space (the caller should try another page). Dead slots are
// reused, so slot numbers stay dense over long update histories.
func (p Page) Insert(item []byte) int {
	slot, dst := p.Reserve(len(item))
	copy(dst, item)
	return slot
}

// Reserve is Insert for a caller that builds the item in place: it
// allocates a slot for an item of n bytes and returns the slot number
// and the item's bytes, aliased into the page, which the caller must
// fill completely (they hold whatever the space held before). It
// returns -1 and nil if the page lacks space.
func (p Page) Reserve(n int) (int, []byte) {
	if n <= 0 || n > MaxItem {
		return -1, nil
	}
	// Look for a reusable dead slot: reusing one saves the 4-byte slot.
	reuse := -1
	for i := 0; i < p.nslots(); i++ {
		if _, ln := p.slotAt(i); ln == 0 {
			reuse = i
			break
		}
	}
	need := n
	if reuse < 0 {
		need += slotSize
	}
	if p.upper()-p.lower() < need {
		return -1, nil
	}
	off := p.upper() - n
	p.setUpper(off)
	if reuse < 0 {
		reuse = p.nslots()
		p.setNSlots(reuse + 1)
		p.setLower(p.lower() + slotSize)
	}
	p.setSlot(reuse, off, n)
	return reuse, p[off : off+n]
}

// Item returns the bytes of slot i, aliased into the page so callers
// may mutate item contents in place (the heap layer uses this to stamp
// xmax into a record header without rewriting the record). It returns
// nil for dead or out-of-range slots.
func (p Page) Item(i int) []byte {
	if i < 0 || i >= p.nslots() {
		return nil
	}
	off, ln := p.slotAt(i)
	if ln == 0 {
		return nil
	}
	return p[off : off+ln]
}

// Delete marks slot i dead. Its bytes are reclaimed by the next
// Compact. Deleting a dead or out-of-range slot is a no-op.
func (p Page) Delete(i int) {
	if i < 0 || i >= p.nslots() {
		return
	}
	off, _ := p.slotAt(i)
	p.setSlot(i, off, 0)
}

// Compact squeezes out the space of dead items, preserving the slot
// numbers of live items. It returns the number of bytes reclaimed.
func (p Page) Compact() int {
	n := p.nslots()
	type live struct{ slot, off, ln int }
	items := make([]live, 0, n)
	for i := 0; i < n; i++ {
		off, ln := p.slotAt(i)
		if ln > 0 {
			items = append(items, live{i, off, ln})
		}
	}
	// Copy live items into a scratch area back-to-front, remembering
	// where each one lands.
	var scratch [Size]byte
	upper := Size
	newOff := make([]int, len(items))
	for k, it := range items {
		upper -= it.ln
		copy(scratch[upper:], p[it.off:it.off+it.ln])
		newOff[k] = upper
	}
	reclaimed := upper - p.upper()
	copy(p[upper:], scratch[upper:])
	for k, it := range items {
		p.setSlot(it.slot, newOff[k], it.ln)
	}
	p.setUpper(upper)
	return reclaimed
}
