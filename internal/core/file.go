package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/device"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/rowenc"
	"repro/internal/txn"
)

// File is an open Inversion file. Byte-oriented operations are turned
// into operations on chunk records; "multiple small sequential writes
// during a single transaction are coalesced to maximize the size of the
// chunk stored in each database record". File implements io.Reader,
// io.Writer, io.Seeker, io.ReaderAt, io.WriterAt and io.Closer.
//
// A File is bound to the transaction (or historical snapshot) it was
// opened under and is not safe for concurrent use, matching the paper's
// single-transaction-per-application client library.
type File struct {
	db        *DB
	tx        *txn.Tx
	snap      *txn.Snapshot
	oid       device.OID
	attr      FileAttr
	data      *heap.Relation
	idx       *btree.Tree
	pos       int64
	size      int64
	writable  bool
	closed    bool
	metaDirt  bool
	readSeen  bool
	wroteData bool

	// Write-coalescing buffer: wbuf holds bytes for [wstart, wstart+len),
	// always less than a chunk of them between calls.
	wbuf   []byte
	wstart int64

	// closeHook, set by the session layer, runs last in Close with
	// Close's error so far; for autocommit opens it commits or aborts
	// the file's private transaction.
	closeHook func(error) error
}

// CreateTx creates a new file under an explicit transaction. class
// selects the device manager ("A file is located on a particular device
// manager at creation"); "" means the database default. A uniquely
// named table inv<oid> is created for the file's chunks, plus a B-tree
// on the chunk number.
func (db *DB) CreateTx(tx *txn.Tx, path, owner, fileType, class string, flags uint32) (*File, error) {
	snap := db.writeSnap(tx)
	parent, name, err := db.splitDirBase(snap, path)
	if err != nil {
		return nil, err
	}
	if err := db.lockName(tx, parent, name); err != nil {
		return nil, err
	}
	snap = db.writeSnap(tx) // re-read after the lock serialised us
	if _, _, err := db.lookupChild(snap, parent, name); err == nil {
		return nil, fmt.Errorf("%w: %q", ErrExist, path)
	} else if !isNotExist(err) {
		return nil, err
	}
	if class == "" {
		class = db.opts.DefaultClass
	}
	if fileType != "" && fileType != TypeDirectory {
		if _, ok := db.cat.Type(fileType); !ok {
			return nil, fmt.Errorf("inversion: file type %q is not defined", fileType)
		}
	}
	oid := db.cat.AllocOID()
	if err := tx.Lock(txn.LockTag{Space: txn.SpaceRelation, Rel: oid}, txn.LockExclusive); err != nil {
		return nil, err
	}
	if _, err := db.cat.CreateRelationAt(tx, oid, DataRelName(oid), class, catalog.KindHeap); err != nil {
		return nil, err
	}
	idxInfo, err := db.cat.CreateRelation(tx, IdxRelName(oid), class, catalog.KindIndex)
	if err != nil {
		return nil, err
	}
	now := db.mgr.TimeSource()
	attr := FileAttr{
		File: oid, Idx: idxInfo.OID, Owner: owner, Type: fileType,
		CTime: now, MTime: now, ATime: now, Flags: flags, Class: class,
	}
	if err := db.addNaming(tx.ID(), name, parent, oid); err != nil {
		return nil, err
	}
	if err := db.addAttr(tx.ID(), attr); err != nil {
		return nil, err
	}
	if err := db.touchMTime(tx, snap, parent); err != nil {
		return nil, err
	}
	idxTree, err := db.chunkTree(idxInfo.OID)
	if err != nil {
		return nil, err
	}
	obs.Active().SetRel(DataRelName(oid))
	db.mgr.AnnotateTx(tx.ID(), DataRelName(oid))
	return &File{
		db: db, tx: tx, snap: snap, oid: oid, attr: attr,
		data: db.dataRel(oid), idx: idxTree, writable: true,
	}, nil
}

// OpenTx opens an existing file under an explicit transaction. Writers
// take an exclusive lock on the file; readers share.
func (db *DB) OpenTx(tx *txn.Tx, path string, write bool) (*File, error) {
	snap := tx.Snapshot()
	if write {
		// Writers use a current read: once the exclusive lock is held,
		// the version chain this transaction will extend is the latest
		// committed one, not the one its start-time snapshot saw.
		snap = db.writeSnap(tx)
	}
	oid, err := db.Resolve(snap, path)
	if err != nil {
		return nil, err
	}
	mode := txn.LockShared
	if write {
		mode = txn.LockExclusive
	}
	if err := tx.Lock(txn.LockTag{Space: txn.SpaceRelation, Rel: oid}, mode); err != nil {
		return nil, err
	}
	if write {
		snap = db.writeSnap(tx)
	}
	return db.openByOID(tx, snap, oid, write)
}

// OpenAsOf opens the file as it existed at time asof ("the p_open call
// includes a parameter to specify the time for which the file should be
// viewed. Historical files may not be opened for writing."). No locks
// are taken: history is immutable.
func (db *DB) OpenAsOf(path string, asof int64) (*File, error) {
	snap := db.mgr.AsOf(asof)
	oid, err := db.Resolve(snap, path)
	if err != nil {
		return nil, err
	}
	return db.openByOID(nil, snap, oid, false)
}

func (db *DB) openByOID(tx *txn.Tx, snap *txn.Snapshot, oid device.OID, write bool) (*File, error) {
	attr, _, err := db.getAttr(snap, oid)
	if err != nil {
		return nil, err
	}
	if attr.IsDir() {
		return nil, ErrIsDirectory
	}
	idxTree, err := db.chunkTree(attr.Idx)
	if err != nil {
		return nil, err
	}
	obs.Active().SetRel(DataRelName(oid))
	if tx != nil {
		// Annotate the live-transaction entry too, so inv_transactions
		// names the relation a long-running transaction is touching.
		db.mgr.AnnotateTx(tx.ID(), DataRelName(oid))
	}
	return &File{
		db: db, tx: tx, snap: snap, oid: oid, attr: attr,
		data: db.dataRel(oid), idx: idxTree,
		size: attr.Size, writable: write,
	}, nil
}

// OID reports the file's object identifier.
func (f *File) OID() device.OID { return f.oid }

// Attr reports the file's attributes as of open (size reflects writes
// through this handle).
func (f *File) Attr() FileAttr {
	a := f.attr
	a.Size = f.size
	return a
}

// Size reports the file's current logical size in bytes.
func (f *File) Size() int64 { return f.size }

// Pos reports the position the next Read or Write starts at.
func (f *File) Pos() int64 { return f.pos }

// chunk row: chunkno(4) | payload (length-prefixed), which is what
// rowenc's Uint32 and Bytes produce. Compressed files interpose a
// raw-length field; see compress.go.
const chunkRowHeader = 8

func decodeChunk(rec []byte) (chunkno uint32, data []byte, err error) {
	r := rowenc.NewReader(rec)
	chunkno = r.Uint32()
	data = r.Bytes()
	return chunkno, data, r.Err()
}

// viewChunk finds the visible record of a chunk, if any, and calls fn
// (when not nil) with its stored bytes, on loan as viewVisible
// describes. Versions are probed newest-first via the shared index
// helper, so heavily rewritten chunks do not pay for their dead history
// on every read. The chunk number is verified on the record itself so
// archive fallbacks (which bypass the index) cannot return the wrong
// chunk.
func (f *File) viewChunk(chunkno uint32, fn func(stored []byte) error) (heap.TID, bool, error) {
	return f.db.viewVisible(f.idx, btree.Key{K1: uint64(chunkno)}, f.data, f.snap,
		func(rec []byte) (bool, error) {
			no, stored, err := decodeChunk(rec)
			if err != nil || no != chunkno || fn == nil {
				return err == nil && no == chunkno, err
			}
			return true, fn(stored)
		})
}

// chunkBufs lends out one-chunk work areas: a partial overwrite merges
// old and new bytes in one, and a partial read of a compressed chunk
// inflates into one. Files that need one are mostly short-lived (a
// small write in its own transaction), so the buffers outlive them.
var chunkBufs = sync.Pool{New: func() any { return new([ChunkSize]byte) }}

// readChunkAt copies the (decompressed) contents of a chunk from inOff
// on into dst and reports how many bytes that was: fewer than len(dst)
// where the chunk ends first, 0 for a hole. The bytes go from the page
// to dst directly; only a compressed chunk that dst cannot take whole
// is inflated into the scratch chunk first.
func (f *File) readChunkAt(chunkno uint32, dst []byte, inOff int) (int, error) {
	n := 0
	_, _, err := f.viewChunk(chunkno, func(stored []byte) error {
		if !f.attr.Compressed() {
			if len(stored) > inOff {
				n = copy(dst, stored[inOff:])
			}
			return nil
		}
		if inOff == 0 && storedRawLen(stored) <= len(dst) {
			var err error
			n, err = inflateChunk(dst, stored)
			return err
		}
		raw := chunkBufs.Get().(*[ChunkSize]byte)
		defer chunkBufs.Put(raw)
		rawLen, err := inflateChunk(raw[:], stored)
		if err == nil && rawLen > inOff {
			n = copy(dst, raw[inOff:rawLen])
		}
		return err
	})
	return n, err
}

// writeChunk stores the complete new contents of a chunk: the visible
// old version (if any) is superseded in the normal no-overwrite way and
// the index gains an entry for the new record. Old index entries stay;
// they are how historical versions of the file are found. data is
// copied into the page before writeChunk returns.
func (f *File) writeChunk(chunkno uint32, data []byte) error {
	if f.attr.Compressed() {
		z := deflaters.Get().(*deflater)
		defer deflaters.Put(z)
		var err error
		if data, err = z.compress(data); err != nil {
			return err
		}
	}
	oldTID, found, err := f.viewChunk(chunkno, nil)
	if err != nil {
		return err
	}
	if found {
		if err := f.data.Delete(f.tx.ID(), oldTID); err != nil {
			return err
		}
	}
	var hdr [chunkRowHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], chunkno)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(data)))
	newTID, err := f.data.InsertParts(f.tx.ID(), hdr[:], data)
	if err != nil {
		return err
	}
	f.wroteData = true
	_, err = f.idx.Insert(btree.Entry{Key: btree.Key{K1: uint64(chunkno)}, Val: newTID.Pack()})
	return err
}

// deleteChunk removes the visible version of a chunk (truncation).
func (f *File) deleteChunk(chunkno uint32) error {
	tid, found, err := f.viewChunk(chunkno, nil)
	if err != nil || !found {
		return err
	}
	f.wroteData = true
	return f.data.Delete(f.tx.ID(), tid)
}

// Write implements io.Writer at the current position.
func (f *File) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// WriteAt implements io.WriterAt. Sequential writes accumulate in the
// coalescing buffer; anything else flushes first. Nothing reaches a
// chunk record until a chunk's worth of sequential bytes is at hand;
// from then on every chunk the bytes cover completely is written out,
// straight from p where the buffer is empty, and what is left over (a
// partial tail) stays buffered.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if !f.writable {
		return 0, ErrReadOnly
	}
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset", ErrBadPath)
	}
	if off+int64(len(p)) > MaxFileSize {
		return 0, ErrFileTooBig
	}
	if len(p) == 0 {
		return 0, nil
	}
	if len(f.wbuf) > 0 && off != f.wstart+int64(len(f.wbuf)) {
		if err := f.Flush(); err != nil {
			return 0, err
		}
	}
	if len(f.wbuf) == 0 {
		f.wstart = off
	}
	if end := off + int64(len(p)); end > f.size {
		f.size = end
	}
	f.metaDirt = true

	// [wstart, …) is now wbuf followed by rest.
	rest := p
	for len(f.wbuf)+len(rest) >= ChunkSize {
		chunkno := f.wstart / ChunkSize
		inOff := f.wstart - chunkno*ChunkSize
		want := int(ChunkSize - inOff) // bytes up to the chunk's end
		if len(f.wbuf) == 0 && inOff == 0 {
			if err := f.writeChunk(uint32(chunkno), rest[:want]); err != nil {
				return 0, err
			}
			rest = rest[want:]
			f.wstart += int64(want)
			continue
		}
		// The chunk starts in the buffer (or mid-chunk): bring the buffer
		// up to the chunk's end and write that. A head that starts
		// mid-chunk is merged with the chunk's old contents.
		if fill := want - len(f.wbuf); fill > 0 {
			f.wbuf = append(f.wbuf, rest[:fill]...)
			rest = rest[fill:]
		}
		if err := f.flushRange(f.wstart, f.wbuf[:want]); err != nil {
			return 0, err
		}
		f.wbuf = f.wbuf[:copy(f.wbuf, f.wbuf[want:])]
		f.wstart += int64(want)
	}
	f.wbuf = append(f.wbuf, rest...)
	return len(p), nil
}

// Flush empties the coalescing buffer into chunk records.
func (f *File) Flush() error {
	if len(f.wbuf) == 0 {
		return nil
	}
	buf, start := f.wbuf, f.wstart
	f.wbuf, f.wstart = f.wbuf[:0], 0
	return f.flushRange(start, buf)
}

// flushRange applies buffered bytes covering [start, start+len(buf)) to
// the underlying chunks, merging with existing contents where the range
// covers a chunk only partially.
func (f *File) flushRange(start int64, buf []byte) error {
	for len(buf) > 0 {
		chunkno := start / ChunkSize
		inOff := start - chunkno*ChunkSize
		span := ChunkSize - inOff
		if span > int64(len(buf)) {
			span = int64(len(buf))
		}
		var err error
		if inOff == 0 && span == ChunkSize {
			err = f.writeChunk(uint32(chunkno), buf[:span])
		} else {
			err = f.mergeChunk(chunkno, inOff, buf[:span])
		}
		if err != nil {
			return err
		}
		start += span
		buf = buf[span:]
	}
	return nil
}

// mergeChunk writes part over the bytes of a chunk from inOff on,
// keeping what the chunk holds on either side of it.
func (f *File) mergeChunk(chunkno, inOff int64, part []byte) error {
	merged := chunkBufs.Get().(*[ChunkSize]byte)
	defer chunkBufs.Put(merged)
	oldLen, err := f.readChunkAt(uint32(chunkno), merged[:], 0)
	if err != nil {
		return err
	}
	// The merged chunk extends to whatever is larger: the old contents,
	// or the end of this write (bounded by the file size for interior
	// chunks).
	end := inOff + int64(len(part))
	newLen := max(int64(oldLen), end)
	newLen = min(newLen, f.size-chunkno*ChunkSize, ChunkSize)
	// A gap between the old end and the new bytes reads as zeros.
	if int64(oldLen) < inOff {
		clear(merged[oldLen:inOff])
	}
	copy(merged[inOff:newLen], part)
	return f.writeChunk(uint32(chunkno), merged[:newLen])
}

// Read implements io.Reader at the current position.
func (f *File) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// ReadAt implements io.ReaderAt. Holes read as zeros; reads past the
// end return io.EOF.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if err := f.Flush(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset", ErrBadPath)
	}
	if off >= f.size {
		return 0, io.EOF
	}
	f.readSeen = true
	total := int64(len(p))
	if off+total > f.size {
		total = f.size - off
	}
	read := int64(0)
	for read < total {
		pos := off + read
		chunkno := pos / ChunkSize
		inOff := pos - chunkno*ChunkSize
		span := ChunkSize - inOff
		if span > total-read {
			span = total - read
		}
		dst := p[read : read+span]
		n, err := f.readChunkAt(uint32(chunkno), dst, int(inOff))
		if err != nil {
			return int(read), err
		}
		clear(dst[n:])
		read += span
	}
	var err error
	if off+read >= f.size && read < int64(len(p)) {
		err = io.EOF
	}
	return int(read), err
}

// Seek implements io.Seeker. The paper's p_lseek takes a 64-bit offset
// split across two ints so clients can address 17.6 TB files.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if err := f.Flush(); err != nil {
		return 0, err
	}
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = f.pos + offset
	case io.SeekEnd:
		abs = f.size + offset
	default:
		return 0, fmt.Errorf("inversion: bad whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("inversion: negative seek position")
	}
	f.pos = abs
	return abs, nil
}

// Truncate sets the file's logical size. Shrinking removes or trims
// chunk records (their old versions remain for time travel); growing
// just extends the size (the gap reads as zeros).
func (f *File) Truncate(n int64) error {
	if f.closed {
		return ErrClosed
	}
	if !f.writable {
		return ErrReadOnly
	}
	if n < 0 || n > MaxFileSize {
		return ErrFileTooBig
	}
	if err := f.Flush(); err != nil {
		return err
	}
	if n < f.size {
		firstDead := (n + ChunkSize - 1) / ChunkSize
		lastOld := (f.size - 1) / ChunkSize
		for c := firstDead; c <= lastOld; c++ {
			if err := f.deleteChunk(uint32(c)); err != nil {
				return err
			}
		}
		if rem := n % ChunkSize; rem > 0 {
			boundary := n / ChunkSize
			old := chunkBufs.Get().(*[ChunkSize]byte)
			defer chunkBufs.Put(old)
			oldLen, err := f.readChunkAt(uint32(boundary), old[:], 0)
			if err != nil {
				return err
			}
			if int64(oldLen) > rem {
				if err := f.writeChunk(uint32(boundary), old[:rem]); err != nil {
					return err
				}
			}
		}
	}
	f.size = n
	f.metaDirt = true
	return nil
}

// Close flushes buffered writes and records new metadata (size, mtime,
// and optionally atime) in the fileatt table under the file's
// transaction. For files opened outside an explicit transaction, Close
// also commits (or, on error, aborts) the file's private transaction.
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	err := f.closeLocked()
	f.closed = true
	if f.closeHook != nil {
		return f.closeHook(err)
	}
	return err
}

func (f *File) closeLocked() error {
	if err := f.Flush(); err != nil {
		return err
	}
	if f.tx == nil || f.tx.Done() {
		return nil
	}
	// The attribute row is rewritten only when the size changed:
	// forcing a metadata page (and its index page) for every same-size
	// overwrite would double the write cost of update-in-place
	// workloads, so mtime maintenance piggybacks on size changes, the
	// same economy ULTRIX-era file servers made with deferred
	// atime/mtime updates.
	if f.metaDirt && f.size != f.attr.Size {
		now := f.db.mgr.TimeSource()
		size := f.size
		if err := f.db.updateAttr(f.tx, f.snap, f.oid, func(a *FileAttr) {
			a.Size = size
			a.MTime = now
			if f.db.opts.TrackATime && f.readSeen {
				a.ATime = now
			}
		}); err != nil {
			return err
		}
	} else if f.db.opts.TrackATime && f.readSeen && f.writable {
		now := f.db.mgr.TimeSource()
		if err := f.db.updateAttr(f.tx, f.snap, f.oid, func(a *FileAttr) { a.ATime = now }); err != nil {
			return err
		}
	}
	// Integrity rules ("Consistency Guarantees") run last, over the
	// file's final state for this transaction: a violated rule fails
	// the close, which aborts the surrounding (or autocommit)
	// transaction — a file of a validated type can never commit
	// structurally broken. (Callers inside explicit transactions must
	// not ignore Close errors; Session.Commit handles this itself.)
	return f.validateOnClose()
}
