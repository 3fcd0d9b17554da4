package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/device"
	"repro/internal/txn"
	"repro/internal/value"
)

// Value is the dynamically typed result of a file function or query
// expression.
type Value = value.V

// FuncCtx is handed to user-defined functions when they run inside the
// data manager. It gives access to the file's attributes, its contents
// (through an ordinary read-only File), and its path.
type FuncCtx struct {
	DB   *DB
	Snap *txn.Snapshot
	OID  device.OID
	Attr FileAttr

	// The naming row the call stands on, when the caller has it (a
	// retrieve does: it is scanning naming); otherwise looked up.
	name   string
	parent device.OID
	named  bool

	file *File
}

// File opens (once) and returns a read-only handle on the subject file,
// positioned at the start.
func (c *FuncCtx) File() (*File, error) {
	if c.file != nil {
		if _, err := c.file.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		return c.file, nil
	}
	f, err := c.DB.openByOID(nil, c.Snap, c.OID, false)
	if err != nil {
		return nil, err
	}
	c.file = f
	return f, nil
}

// Contents reads the whole subject file.
func (c *FuncCtx) Contents() ([]byte, error) {
	f, err := c.File()
	if err != nil {
		return nil, err
	}
	data := make([]byte, f.Size())
	if len(data) == 0 {
		return data, nil
	}
	if _, err := io.ReadFull(f, data); err != nil && err != io.EOF {
		return nil, err
	}
	return data, nil
}

// naming reports the subject file's name and parent directory.
func (c *FuncCtx) naming() (string, device.OID, error) {
	if c.named {
		return c.name, c.parent, nil
	}
	name, parent, _, err := c.DB.NamingEntry(c.Snap, c.OID)
	return name, parent, err
}

// Path reports the subject file's absolute pathname.
func (c *FuncCtx) Path() (string, error) {
	if !c.named || c.OID == RootDirOID {
		return c.DB.PathOf(c.Snap, c.OID)
	}
	dir, err := c.DB.PathOf(c.Snap, c.parent)
	if err != nil {
		return "", err
	}
	if dir == "/" {
		return "/" + c.name, nil
	}
	return dir + "/" + c.name, nil
}

func (c *FuncCtx) close() {
	if c.file != nil {
		_ = c.file.Close()
		c.file = nil
	}
}

// RegisterFunc installs the implementation of a function. It is the
// analogue of POSTGRES dynamically loading user code into the data
// manager process: the function will execute with the data manager's
// own address space and permissions.
func (db *DB) RegisterFunc(name string, impl FileFunc) {
	db.funcMu.Lock()
	db.funcs[name] = impl
	db.funcMu.Unlock()
}

// CallFunc invokes a function on a file. Builtins (owner, size, dir,
// …) need no declaration; user functions must be declared in the
// catalog and type-check against the file's type: "POSTGRES will
// automatically enforce type checking when … functions are called that
// operate on the file."
func (db *DB) CallFunc(snap *txn.Snapshot, name string, oid device.OID) (Value, error) {
	attr, _, err := db.getAttr(snap, oid)
	if err != nil {
		return value.Null(), err
	}
	return db.callFunc(&FuncCtx{DB: db, Snap: snap, OID: oid, Attr: attr}, name)
}

// callFunc runs function name on the file ctx describes and closes
// whatever the function opened through ctx.
func (db *DB) callFunc(ctx *FuncCtx, name string) (Value, error) {
	defer ctx.close()
	if impl, ok := db.builtin[name]; ok {
		return impl(ctx)
	}
	decl, ok := db.cat.Function(name)
	if !ok {
		return value.Null(), fmt.Errorf("%w: %q", ErrNoFunction, name)
	}
	if decl.TypeName != "" && decl.TypeName != ctx.Attr.Type {
		return value.Null(), fmt.Errorf("%w: %s applies to type %q, file is %q",
			ErrTypeMismatch, name, decl.TypeName, ctx.Attr.Type)
	}
	db.funcMu.RLock()
	impl, ok := db.funcs[name]
	db.funcMu.RUnlock()
	if !ok {
		return value.Null(), fmt.Errorf("%w: %q declared but not loaded", ErrNoFunction, name)
	}
	return impl(ctx)
}

// registerBuiltins installs the metadata accessors every POSTQUEL query
// over the file system relies on (owner(file), filetype(file),
// size(file), dir(file), month_of(file), …).
func (db *DB) registerBuiltins() {
	db.builtin = map[string]FileFunc{
		"owner": func(c *FuncCtx) (Value, error) { return value.Str(c.Attr.Owner), nil },
		"filetype": func(c *FuncCtx) (Value, error) {
			return value.Str(c.Attr.Type), nil
		},
		"size": func(c *FuncCtx) (Value, error) { return value.Int(c.Attr.Size), nil },
		"name": func(c *FuncCtx) (Value, error) {
			n, _, err := c.naming()
			if err != nil {
				return value.Null(), err
			}
			return value.Str(n), nil
		},
		"dir": func(c *FuncCtx) (Value, error) {
			if c.OID == RootDirOID {
				return value.Str("/"), nil // the root is its own parent
			}
			_, parent, err := c.naming()
			if err != nil {
				return value.Null(), err
			}
			p, err := c.DB.PathOf(c.Snap, parent)
			if err != nil {
				return value.Null(), err
			}
			return value.Str(p), nil
		},
		"path": func(c *FuncCtx) (Value, error) {
			p, err := c.Path()
			if err != nil {
				return value.Null(), err
			}
			return value.Str(p), nil
		},
		"oid":   func(c *FuncCtx) (Value, error) { return value.Int(int64(c.Attr.File)), nil },
		"ctime": func(c *FuncCtx) (Value, error) { return value.Int(c.Attr.CTime), nil },
		"mtime": func(c *FuncCtx) (Value, error) { return value.Int(c.Attr.MTime), nil },
		"atime": func(c *FuncCtx) (Value, error) { return value.Int(c.Attr.ATime), nil },
		"device": func(c *FuncCtx) (Value, error) {
			class, err := c.DB.sw.HomeClass(c.Attr.File)
			if err != nil {
				// Directories own no relation; report the attr class.
				return value.Str(c.Attr.Class), nil
			}
			return value.Str(class), nil
		},
		"isdir": func(c *FuncCtx) (Value, error) { return value.Bool(c.Attr.IsDir()), nil },
		"month_of": func(c *FuncCtx) (Value, error) {
			return value.Str(time.Unix(0, c.Attr.MTime).UTC().Month().String()), nil
		},
	}
}
