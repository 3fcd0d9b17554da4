package core

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/device"
	"repro/internal/heap"
	"repro/internal/rowenc"
	"repro/internal/txn"
	"repro/internal/value"
)

// FileJoin is the fileatt side of a retrieve's naming ⋈ fileatt join.
// The retrieve scans naming and hands each row's function calls to
// Call; the first call scans the fileatt heap once at the
// query's snapshot into the build side — the encoded rows back to back
// in one arena and an index of them sorted by file OID, about 100 bytes
// per visible file — and every call after that is a binary search, not
// an index descent. A statement that never calls a function never
// builds it. A FileJoin serves one retrieve on one goroutine.
type FileJoin struct {
	built bool
	buf   []byte
	rows  []joinRow

	// ctx names the database and snapshot and carries the row under
	// evaluation; its Attr is decoded once per row, however many
	// functions the statement applies to it.
	ctx     FuncCtx
	decoded bool
}

type joinRow struct {
	file     device.OID
	off, end int // the encoded fileatt row is buf[off:end]
}

var fileJoins = sync.Pool{New: func() any { return new(FileJoin) }}

// NewFileJoin returns an empty join over the files visible to snap.
// Release it when the retrieve ends.
func (db *DB) NewFileJoin(snap *txn.Snapshot) *FileJoin {
	j := fileJoins.Get().(*FileJoin)
	j.ctx = FuncCtx{DB: db, Snap: snap, named: true}
	return j
}

// Release returns the build side's memory for the next retrieve to
// reuse. The join must not be used afterwards.
func (j *FileJoin) Release() {
	*j = FileJoin{buf: j.buf[:0], rows: j.rows[:0]}
	fileJoins.Put(j)
}

func (j *FileJoin) build() error {
	err := j.ctx.DB.fileatt.Scan(j.ctx.Snap, func(_ heap.TID, payload []byte) (bool, error) {
		r := rowenc.NewReader(payload)
		file := device.OID(r.Uint32()) // a row starts with its file OID
		off := len(j.buf)
		j.buf = append(j.buf, payload...)
		j.rows = append(j.rows, joinRow{file, off, len(j.buf)})
		return false, r.Err()
	})
	if err != nil {
		return err
	}
	slices.SortFunc(j.rows, func(a, b joinRow) int { return cmp.Compare(a.file, b.file) })
	j.built = true
	return nil
}

// attr finds oid's attribute row: in the build side, or — for a file
// the heap scan did not see, which after a vacuum is any file whose
// version as of a historical snapshot has moved to the archive — by
// the index probe CallFunc makes, which also reports ErrNotExist.
func (j *FileJoin) attr(oid device.OID) (FileAttr, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return FileAttr{}, err
		}
	}
	if i, ok := slices.BinarySearchFunc(j.rows, oid, func(r joinRow, oid device.OID) int { return cmp.Compare(r.file, oid) }); ok {
		return decodeAttr(j.buf[j.rows[i].off:j.rows[i].end])
	}
	attr, _, err := j.ctx.DB.getAttr(j.ctx.Snap, oid)
	return attr, err
}

// Call applies function fn to file oid as CallFunc does, given the
// naming row the retrieve is standing on (name under parent), so the
// functions that want the row — name, dir, path — do not look it up
// again.
func (j *FileJoin) Call(fn, name string, parent, oid device.OID) (Value, error) {
	c := &j.ctx
	if !j.decoded || c.OID != oid {
		attr, err := j.attr(oid)
		if err != nil {
			j.decoded = false
			return value.Null(), err
		}
		c.Attr, c.OID, j.decoded = attr, oid, true
	}
	c.name, c.parent = name, parent
	return c.DB.callFunc(c, fn)
}
