// Package nfs implements the evaluation baseline: an ULTRIX-style NFS
// stack — an FFS-like local file store with cylinder-group block
// clustering [MCKU84], a stateless page server whose writes are
// synchronous per the NFS protocol [SAND85], an optional PRESTOserve
// non-volatile RAM write cache, and a client that moves data over the
// same simulated network as Inversion's client/server path. Everything
// stores real bytes (tests verify round trips) while charging costs to
// the shared virtual clock.
package nfs

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/iosim"
)

// BlockSize matches the page size both file systems transfer in.
const BlockSize = 8192

// ErrNoFile is returned for operations on unknown files.
var ErrNoFile = errors.New("nfs: no such file")

type file struct {
	extents []int64  // starting address of each contiguous extent
	blocks  []int64  // linear block addresses, in file order
	data    [][]byte // nil entry = hole (reads as zeros)
	size    int64
}

// FileStore is the server-local FFS-like file system. Blocks are
// allocated in contiguous runs (the cylinder-group clustering effect),
// and a server-memory buffer cache absorbs repeated reads. Metadata
// (the block map) is maintained in memory and charged as a handful of
// inode/indirect-block writes at sync points, which is the paper's
// explanation for NFS's fast file creation: "The NFS implementation
// does not maintain as much indexing information on the data file, and
// so can postpone writing its index until all data blocks have been
// written."
type FileStore struct {
	mu        sync.Mutex
	disk      *iosim.Disk
	files     map[string]*file
	nextBlock int64
	extent    int

	cache    map[cacheKey]bool
	cacheLRU []cacheKey
	cacheCap int

	metaDirty map[string]int // pending block-map updates per file
}

type cacheKey struct {
	name  string
	block int64
}

// NewFileStore returns a store over the given disk model. cachePages is
// the server buffer cache size (0 = a 1024-page default).
func NewFileStore(disk *iosim.Disk, cachePages int) *FileStore {
	if cachePages <= 0 {
		cachePages = 1024
	}
	return &FileStore{
		disk:      disk,
		files:     make(map[string]*file),
		extent:    16,
		cache:     make(map[cacheKey]bool),
		cacheCap:  cachePages,
		metaDirty: make(map[string]int),
	}
}

// Create makes an empty file (truncating any existing one).
func (fs *FileStore) Create(name string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[name] = &file{}
	fs.metaDirty[name]++
}

// Size reports a file's size.
func (fs *FileStore) Size(name string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return 0, ErrNoFile
	}
	return f.size, nil
}

// ensureBlock grows the block map through index b, allocating addresses
// in contiguous per-file extents (the cylinder-group clustering).
func (fs *FileStore) ensureBlock(f *file, b int64) {
	for int64(len(f.blocks)) <= b {
		if len(f.blocks)%fs.extent == 0 {
			// New extent: claim a contiguous run for this file.
			f.extents = append(f.extents, fs.nextBlock)
			fs.nextBlock += int64(fs.extent)
		}
		ext := f.extents[len(f.blocks)/fs.extent]
		f.blocks = append(f.blocks, ext+int64(len(f.blocks)%fs.extent))
		f.data = append(f.data, nil)
	}
}

func (fs *FileStore) touchCache(k cacheKey) {
	if fs.cache[k] {
		return
	}
	fs.cache[k] = true
	fs.cacheLRU = append(fs.cacheLRU, k)
	for len(fs.cacheLRU) > fs.cacheCap {
		victim := fs.cacheLRU[0]
		fs.cacheLRU = fs.cacheLRU[1:]
		delete(fs.cache, victim)
	}
}

// WriteBlock stores one block of a file. sync forces the block to disk
// before returning (the stateless-NFS discipline); async writes land in
// the server cache and charge nothing now (ULTRIX would write them back
// later).
func (fs *FileStore) WriteBlock(name string, blockNo int64, off int, data []byte, sync bool) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return ErrNoFile
	}
	fs.ensureBlock(f, blockNo)
	if f.data[blockNo] == nil {
		f.data[blockNo] = make([]byte, BlockSize)
	}
	copy(f.data[blockNo][off:], data)
	if end := blockNo*BlockSize + int64(off+len(data)); end > f.size {
		f.size = end
	}
	fs.metaDirty[name]++
	fs.touchCache(cacheKey{name, blockNo})
	if sync {
		fs.disk.Access(f.blocks[blockNo], BlockSize)
	}
	return nil
}

// ReadBlock fills buf from one block (zero-filled holes). Cache misses
// charge a disk access.
func (fs *FileStore) ReadBlock(name string, blockNo int64, buf []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return ErrNoFile
	}
	if blockNo >= int64(len(f.blocks)) || f.data[blockNo] == nil {
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	k := cacheKey{name, blockNo}
	if !fs.cache[k] {
		fs.disk.Access(f.blocks[blockNo], BlockSize)
		fs.touchCache(k)
	}
	copy(buf, f.data[blockNo])
	return nil
}

// SyncMeta writes the pending block-map (inode/indirect) updates for a
// file: one short disk write per 2048 map entries plus one for the
// inode.
func (fs *FileStore) SyncMeta(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return ErrNoFile
	}
	if fs.metaDirty[name] == 0 {
		return nil
	}
	fs.metaDirty[name] = 0
	writes := 1 + len(f.blocks)/2048
	for i := 0; i < writes; i++ {
		fs.disk.Access(fs.nextBlock+int64(i)+100, BlockSize)
	}
	return nil
}

// FlushCache empties the server buffer cache ("All caches were flushed
// before each test").
func (fs *FileStore) FlushCache() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cache = make(map[cacheKey]bool)
	fs.cacheLRU = nil
}

// ReadAt reads into buf at a byte offset, for local (non-NFS) use and
// tests.
func (fs *FileStore) ReadAt(name string, buf []byte, off int64) (int, error) {
	size, err := fs.Size(name)
	if err != nil {
		return 0, err
	}
	if off >= size {
		return 0, fmt.Errorf("nfs: read past EOF")
	}
	total := int64(len(buf))
	if off+total > size {
		total = size - off
	}
	read := int64(0)
	block := make([]byte, BlockSize)
	for read < total {
		pos := off + read
		bn := pos / BlockSize
		in := pos % BlockSize
		span := BlockSize - in
		if span > total-read {
			span = total - read
		}
		if err := fs.ReadBlock(name, bn, block); err != nil {
			return int(read), err
		}
		copy(buf[read:read+span], block[in:])
		read += span
	}
	return int(read), nil
}

// WriteAt writes at a byte offset (local use and tests).
func (fs *FileStore) WriteAt(name string, data []byte, off int64, sync bool) (int, error) {
	written := int64(0)
	total := int64(len(data))
	for written < total {
		pos := off + written
		bn := pos / BlockSize
		in := pos % BlockSize
		span := BlockSize - in
		if span > total-written {
			span = total - written
		}
		if err := fs.WriteBlock(name, bn, int(in), data[written:written+span], sync); err != nil {
			return int(written), err
		}
		written += span
	}
	return int(written), nil
}
