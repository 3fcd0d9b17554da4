// Package catalog implements the system catalogs: the registry of
// relations (with their device placement), user-defined types, and
// user-defined functions. POSTGRES lets users "define new types for use
// in the database system" and register functions over them that are
// "dynamically loaded by the data manager when they are invoked";
// Inversion uses both to support strong typing on user files and
// classification functions that describe files. Here declarations are
// persisted in catalog heap relations (transactionally, like everything
// else), while function implementations are Go functions registered in
// an in-process registry — the moral equivalent of dynamic loading into
// the data manager's address space.
package catalog

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/heap"
	"repro/internal/rowenc"
	"repro/internal/txn"
)

// Well-known relation OIDs. OIDs 1 and 2 are the transaction logs (see
// package txn).
const (
	RelationsRel device.OID = 5
	TypesRel     device.OID = 6
	FunctionsRel device.OID = 7

	// FirstUserOID is where dynamically allocated OIDs begin.
	FirstUserOID device.OID = 100
)

// RelKind classifies a catalogued relation.
type RelKind uint8

// Relation kinds.
const (
	KindHeap  RelKind = iota // ordinary heap of records
	KindIndex                // B-tree pages
	KindVirtual
)

// RelInfo describes one relation.
type RelInfo struct {
	OID   device.OID
	Name  string
	Class string // device class the relation lives on
	Kind  RelKind
}

// TypeInfo describes a user-defined file type.
type TypeInfo struct {
	Name string
	Doc  string
}

// FuncInfo describes a registered function over a file type.
type FuncInfo struct {
	Name     string
	TypeName string // "" = applies to any type
	Lang     string // "go" here; "C" or "postquel" in the paper
	Doc      string
}

// Errors.
var (
	ErrExists   = errors.New("catalog: already defined")
	ErrNotFound = errors.New("catalog: not found")
)

// Placer creates relations on a device class; *device.Switch satisfies
// it.
type Placer interface {
	Place(rel device.OID, class string) error
}

// Catalog is the system catalog.
type Catalog struct {
	mu      sync.Mutex
	rels    *heap.Relation
	types   *heap.Relation
	funcs   *heap.Relation
	placer  Placer
	byName  map[string]RelInfo
	byOID   map[device.OID]RelInfo
	typeMap map[string]TypeInfo
	funcMap map[string]FuncInfo
	nextOID device.OID
}

func encodeRel(ri RelInfo) []byte {
	return rowenc.NewWriter(64).
		Uint32(uint32(ri.OID)).String(ri.Name).String(ri.Class).Uint32(uint32(ri.Kind)).Done()
}

func decodeRel(b []byte) (RelInfo, error) {
	r := rowenc.NewReader(b)
	ri := RelInfo{
		OID:  device.OID(r.Uint32()),
		Name: r.String(),
	}
	ri.Class = r.String()
	ri.Kind = RelKind(r.Uint32())
	return ri, r.Err()
}

// Open loads (or bootstraps) the catalog. The three catalog relations
// must already be placed on a device; mgr supplies snapshots for the
// load scan.
func Open(rels, types, funcs *heap.Relation, mgr *txn.Manager, placer Placer) (*Catalog, error) {
	c := &Catalog{
		rels:    rels,
		types:   types,
		funcs:   funcs,
		placer:  placer,
		byName:  make(map[string]RelInfo),
		byOID:   make(map[device.OID]RelInfo),
		typeMap: make(map[string]TypeInfo),
		funcMap: make(map[string]FuncInfo),
		nextOID: FirstUserOID,
	}
	snap := mgr.CurrentSnapshot()
	err := rels.Scan(snap, func(_ heap.TID, payload []byte) (bool, error) {
		ri, err := decodeRel(payload)
		if err != nil {
			return false, err
		}
		c.byName[ri.Name] = ri
		c.byOID[ri.OID] = ri
		if ri.OID >= c.nextOID {
			c.nextOID = ri.OID + 1
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	err = types.Scan(snap, func(_ heap.TID, payload []byte) (bool, error) {
		r := rowenc.NewReader(payload)
		ti := TypeInfo{Name: r.String(), Doc: r.String()}
		if err := r.Err(); err != nil {
			return false, err
		}
		c.typeMap[ti.Name] = ti
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	err = funcs.Scan(snap, func(_ heap.TID, payload []byte) (bool, error) {
		r := rowenc.NewReader(payload)
		fi := FuncInfo{Name: r.String(), TypeName: r.String(), Lang: r.String(), Doc: r.String()}
		if err := r.Err(); err != nil {
			return false, err
		}
		c.funcMap[fi.Name] = fi
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// AllocOID hands out a fresh object identifier. Durability of the
// allocation comes from the catalog row (or naming row) the caller
// writes with it; after a crash, Open rescans and resumes above every
// recorded OID.
func (c *Catalog) AllocOID() device.OID {
	c.mu.Lock()
	defer c.mu.Unlock()
	oid := c.nextOID
	c.nextOID++
	return oid
}

// NoteOID raises the allocator above an OID recorded elsewhere (the
// naming table records directory OIDs that own no relation).
func (c *Catalog) NoteOID(oid device.OID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if oid >= c.nextOID {
		c.nextOID = oid + 1
	}
}

// CreateRelation allocates an OID, places the relation on its device
// class, and records it, all under tx. If tx aborts the in-memory
// registration is rolled back (the device-side creation is left behind,
// like POSTGRES, and is harmless).
func (c *Catalog) CreateRelation(tx *txn.Tx, name, class string, kind RelKind) (RelInfo, error) {
	return c.createRelation(tx, 0, name, class, kind)
}

// CreateRelationAt is CreateRelation with a caller-chosen OID; the
// Inversion layer uses it so a file's data table OID equals the file's
// own object identifier (the table name inv<oid> is computed from it).
func (c *Catalog) CreateRelationAt(tx *txn.Tx, oid device.OID, name, class string, kind RelKind) (RelInfo, error) {
	return c.createRelation(tx, oid, name, class, kind)
}

func (c *Catalog) createRelation(tx *txn.Tx, oid device.OID, name, class string, kind RelKind) (RelInfo, error) {
	c.mu.Lock()
	if _, ok := c.byName[name]; ok {
		c.mu.Unlock()
		return RelInfo{}, fmt.Errorf("%w: relation %q", ErrExists, name)
	}
	if oid == 0 {
		oid = c.nextOID
		c.nextOID++
	} else if _, ok := c.byOID[oid]; ok {
		c.mu.Unlock()
		return RelInfo{}, fmt.Errorf("%w: oid %d", ErrExists, oid)
	} else if oid >= c.nextOID {
		c.nextOID = oid + 1
	}
	ri := RelInfo{OID: oid, Name: name, Class: class, Kind: kind}
	c.byName[name] = ri
	c.byOID[oid] = ri
	c.mu.Unlock()

	rollback := func() {
		c.mu.Lock()
		delete(c.byName, name)
		delete(c.byOID, oid)
		c.mu.Unlock()
	}
	if err := c.placer.Place(oid, class); err != nil {
		rollback()
		return RelInfo{}, err
	}
	if _, err := c.rels.Insert(tx.ID(), encodeRel(ri)); err != nil {
		rollback()
		return RelInfo{}, err
	}
	tx.OnEnd(func(committed bool) {
		if !committed {
			rollback()
		}
	})
	return ri, nil
}

// Relation looks a relation up by name.
func (c *Catalog) Relation(name string) (RelInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ri, ok := c.byName[name]
	return ri, ok
}

// RelationByOID looks a relation up by OID.
func (c *Catalog) RelationByOID(oid device.OID) (RelInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ri, ok := c.byOID[oid]
	return ri, ok
}

// Relations lists every catalogued relation.
func (c *Catalog) Relations() []RelInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RelInfo, 0, len(c.byName))
	for _, ri := range c.byName {
		out = append(out, ri)
	}
	return out
}

// DefineType records a new file type ("A new file type is declared by
// issuing a define type command to the database system").
func (c *Catalog) DefineType(tx *txn.Tx, ti TypeInfo) error {
	c.mu.Lock()
	if _, ok := c.typeMap[ti.Name]; ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: type %q", ErrExists, ti.Name)
	}
	c.typeMap[ti.Name] = ti
	c.mu.Unlock()

	row := rowenc.NewWriter(32).String(ti.Name).String(ti.Doc).Done()
	if _, err := c.types.Insert(tx.ID(), row); err != nil {
		c.mu.Lock()
		delete(c.typeMap, ti.Name)
		c.mu.Unlock()
		return err
	}
	tx.OnEnd(func(committed bool) {
		if !committed {
			c.mu.Lock()
			delete(c.typeMap, ti.Name)
			c.mu.Unlock()
		}
	})
	return nil
}

// Type looks up a file type.
func (c *Catalog) Type(name string) (TypeInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ti, ok := c.typeMap[name]
	return ti, ok
}

// Types lists all defined types.
func (c *Catalog) Types() []TypeInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TypeInfo, 0, len(c.typeMap))
	for _, ti := range c.typeMap {
		out = append(out, ti)
	}
	return out
}

// DefineFunction records a function declaration.
func (c *Catalog) DefineFunction(tx *txn.Tx, fi FuncInfo) error {
	c.mu.Lock()
	if _, ok := c.funcMap[fi.Name]; ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: function %q", ErrExists, fi.Name)
	}
	c.funcMap[fi.Name] = fi
	c.mu.Unlock()

	row := rowenc.NewWriter(64).
		String(fi.Name).String(fi.TypeName).String(fi.Lang).String(fi.Doc).Done()
	if _, err := c.funcs.Insert(tx.ID(), row); err != nil {
		c.mu.Lock()
		delete(c.funcMap, fi.Name)
		c.mu.Unlock()
		return err
	}
	tx.OnEnd(func(committed bool) {
		if !committed {
			c.mu.Lock()
			delete(c.funcMap, fi.Name)
			c.mu.Unlock()
		}
	})
	return nil
}

// Function looks up a function declaration.
func (c *Catalog) Function(name string) (FuncInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fi, ok := c.funcMap[name]
	return fi, ok
}

// Functions lists all declared functions.
func (c *Catalog) Functions() []FuncInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]FuncInfo, 0, len(c.funcMap))
	for _, fi := range c.funcMap {
		out = append(out, fi)
	}
	return out
}
