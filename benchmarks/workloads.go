package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// rng is splitmix64: every input of a run — file contents, sizes, the
// op schedule, write payloads — is a pure function of the -seed.
type rng struct{ s uint64 }

func newRng(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fill writes pseudo-random bytes (incompressible, never all zero, so a
// hole or a misplaced chunk cannot compare equal by accident).
func (r *rng) fill(p []byte) {
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, r.next())
		p = p[8:]
	}
	if len(p) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.next())
		copy(p, tail[:])
	}
}

// mix deals op classes at a fixed share: exactly one side op, at a
// seeded place, in every block of `one` ops. The share never depends on
// the client's role or on how long ops take, and — unlike an independent
// draw per op — the number of side ops in a window is not itself a
// source of noise (a meta_query side op costs sixty main ops).
type mix struct{ one, pos, at int }

func (m *mix) side(r *rng) bool {
	if m.pos == 0 {
		m.at = r.intn(m.one)
	}
	side := m.pos == m.at
	m.pos = (m.pos + 1) % m.one
	return side
}

// Streams of the seed: one per independent input, so adding a draw to
// one never shifts another.
const (
	streamBase    = 1
	streamData    = 2
	streamHot     = 3
	streamClients = 16 // + client index
)

type opClass uint8

const (
	classMain opClass = iota
	classSide
	numClasses
)

func (c opClass) String() string { return [...]string{"main", "side"}[c] }

// op is one generated operation: what to do, never how long it took.
// kind and the three arguments mean what the workload says they mean;
// two runs with one seed generate identical op sequences per client.
type op struct {
	class   opClass
	kind    uint8
	a, b, c int64
	wbytes  int64 // file bytes the op writes
}

// client is one closed-loop caller: next draws its next op, do runs it
// on the connection and checks the output. rows counts result rows
// (queries only), so rows examined per row returned can be reported.
type client interface {
	next() op
	do(c fsConn, o op) (rows int, err error)
}

// workload is one fixed traffic mix over one data set.
type workload struct {
	name, why string
	mainOp    string // what one main op is
	sideOp    string // what one side op is, and its fixed share
	tracedOps int    // ops per traced single-client pass
	// populate writes the workload's data on top of the base tree.
	populate func(c fsConn, st *state, seed int64) error
	// newClient prepares client idx of n (opens its descriptors).
	newClient func(c fsConn, st *state, idx, n int, seed int64) (client, error)
	// verify is the post-run output check.
	verify func(c fsConn, st *state, clients []client) error
	// intent checks, on the traced run's counted pass, that the workload
	// still stresses the layer it exists for.
	intent func(a *passResult) error
}

// sizes are the data-set dimensions a test may shrink; every real run
// uses fullSizes, which the workload descriptions and README state.
type sizes struct {
	baseFiles    int // files per base directory
	coldFiles    int
	coldFileSize int
	txFiles      int
}

var fullSizes = sizes{baseFiles: 125, coldFiles: 12, coldFileSize: 2 << 20, txFiles: 16}

// The base tree every volume gets first, so the namespace B-trees are
// never trivial: 8 directories of 125 small files.
const (
	baseDirs     = 8
	baseMinSize  = 100
	baseSizeSpan = 1001 // sizes 100..1100
	bigFiles     = 9    // files the meta_query predicate selects
	bigThreshold = baseMinSize + baseSizeSpan - 1
)

// state is what set-up leaves behind for clients and checks: the shadow
// copy of every byte written.
type state struct {
	sz        sizes
	baseSize  [baseDirs][]int64
	bigNames  []string // sorted names of the files larger than bigThreshold
	shadow    [][]byte // workload files, by index
	hot       [][]byte // cold_scan's small hot files
	userBytes int64    // file bytes written during set-up
}

func basePath(d, f int) string { return fmt.Sprintf("/base/d%d/f%03d", d, f) }
func baseDir(d int) string     { return fmt.Sprintf("/base/d%d", d) }
func baseName(f int) string    { return fmt.Sprintf("f%03d", f) }

// writeFile creates path with data inside the caller's transaction.
func writeFile(c fsConn, st *state, path string, data []byte) error {
	fd, err := c.Creat(path)
	if err != nil {
		return err
	}
	// One call per 64 KB: a client library copying a large file.
	for off := 0; off < len(data); off += 64 << 10 {
		end := off + 64<<10
		if end > len(data) {
			end = len(data)
		}
		if n, err := c.Write(fd, data[off:end]); err != nil || n != end-off {
			return fmt.Errorf("write %s: n=%d err=%v", path, n, err)
		}
	}
	st.userBytes += int64(len(data))
	return c.Close(fd)
}

// populateBase writes the base tree, one transaction per directory.
func populateBase(c fsConn, st *state, seed int64) error {
	r := newRng(seed, streamBase)
	if err := c.Mkdir("/base"); err != nil {
		return err
	}
	buf := make([]byte, baseMinSize+baseSizeSpan+bigFiles)
	for d := 0; d < baseDirs; d++ {
		if err := c.Begin(); err != nil {
			return err
		}
		if err := c.Mkdir(baseDir(d)); err != nil {
			return err
		}
		st.baseSize[d] = make([]int64, st.sz.baseFiles)
		for f := range st.baseSize[d] {
			size := baseMinSize + r.intn(baseSizeSpan)
			st.baseSize[d][f] = int64(size)
			r.fill(buf[:size])
			if err := writeFile(c, st, basePath(d, f), buf[:size]); err != nil {
				return err
			}
		}
		if err := c.Commit(); err != nil {
			return err
		}
	}
	// Nine files, distinctly named, grow past every other size: the
	// rows the meta_query predicate must return, no more, no fewer.
	if err := c.Begin(); err != nil {
		return err
	}
	for k := 0; k < bigFiles; k++ {
		d, f := k%baseDirs, k
		size := bigThreshold + 1 + k
		st.baseSize[d][f] = int64(size)
		st.bigNames = append(st.bigNames, baseName(f))
		r.fill(buf[:size])
		fd, err := c.Open(basePath(d, f), true)
		if err != nil {
			return err
		}
		if _, err := c.Write(fd, buf[:size]); err != nil {
			return err
		}
		if err := c.Close(fd); err != nil {
			return err
		}
	}
	sort.Strings(st.bigNames)
	return c.Commit()
}

// populateFiles writes n files of size bytes under dir, one transaction
// each, and keeps their contents as the shadow copy.
func populateFiles(c fsConn, st *state, seed int64, stream uint64, dir string, n, size int) ([][]byte, error) {
	r := newRng(seed, stream)
	if err := c.Mkdir(dir); err != nil {
		return nil, err
	}
	files := make([][]byte, n)
	for i := range files {
		files[i] = make([]byte, size)
		r.fill(files[i])
		if err := c.Begin(); err != nil {
			return nil, err
		}
		if err := writeFile(c, st, filePath(dir, i), files[i]); err != nil {
			return nil, err
		}
		if err := c.Commit(); err != nil {
			return nil, err
		}
	}
	return files, nil
}

func filePath(dir string, i int) string { return fmt.Sprintf("%s/f%02d", dir, i) }

// readExact reads len(buf) bytes at the descriptor's position and
// compares them to want.
func readExact(c fsConn, fd int, buf, want []byte) error {
	n, err := c.Read(fd, buf)
	if err != nil {
		return err
	}
	if n != len(buf) || !bytes.Equal(buf, want) {
		return fmt.Errorf("read returned %d bytes differing from the shadow copy", n)
	}
	return nil
}

// verifyFiles reads every workload file back whole and compares it to
// the shadow copy.
func verifyFiles(c fsConn, dir string, shadow [][]byte) error {
	buf := make([]byte, 64<<10)
	for i, want := range shadow {
		fd, err := c.Open(filePath(dir, i), false)
		if err != nil {
			return err
		}
		for off := 0; off < len(want); off += len(buf) {
			n := min(len(buf), len(want)-off)
			if err := readExact(c, fd, buf[:n], want[off:off+n]); err != nil {
				return fmt.Errorf("%s at %d: %w", filePath(dir, i), off, err)
			}
		}
		if err := c.Close(fd); err != nil {
			return err
		}
	}
	return nil
}

// statBase is hot_read's side op: Stat of a base file, checked against
// the size set-up wrote.
func statBase(c fsConn, st *state, d, f int64) error {
	size, err := c.Stat(basePath(int(d), int(f)))
	if err != nil {
		return err
	}
	if size != st.baseSize[d][f] {
		return fmt.Errorf("stat %s: size %d, want %d", basePath(int(d), int(f)), size, st.baseSize[d][f])
	}
	return nil
}

// ---- hot_read ----

const (
	hotFiles    = 16
	hotFileSize = 64 << 10
	hotReadSize = 8 << 10
	hotSideOne  = 8 // side op share: 1 in 8
)

type hotClient struct {
	st  *state
	r   *rng
	mix mix
	fds []int
	buf []byte
}

func (h *hotClient) next() op {
	if h.mix.side(h.r) {
		return op{class: classSide, a: int64(h.r.intn(baseDirs)), b: int64(h.r.intn(h.st.sz.baseFiles))}
	}
	return op{class: classMain, a: int64(h.r.intn(hotFiles)),
		b: int64(h.r.intn(hotFileSize/hotReadSize)) * hotReadSize}
}

func (h *hotClient) do(c fsConn, o op) (int, error) {
	if o.class == classSide {
		return 0, statBase(c, h.st, o.a, o.b)
	}
	if err := c.Seek(h.fds[o.a], o.b); err != nil {
		return 0, err
	}
	return 0, readExact(c, h.fds[o.a], h.buf, h.st.shadow[o.a][o.b:o.b+hotReadSize])
}

// openAll opens every workload file read-only on c.
func openAll(c fsConn, dir string, n int) ([]int, error) {
	fds := make([]int, n)
	for i := range fds {
		var err error
		if fds[i], err = c.Open(filePath(dir, i), false); err != nil {
			return nil, err
		}
	}
	return fds, nil
}

// ---- cold_scan ----

const (
	coldReadSize = 64 << 10
	coldHotFiles = 8
	coldHotSize  = 8 << 10
	coldSideOne  = 16 // side op share: 1 in 16
)

type coldClient struct {
	st     *state
	r      *rng
	mix    mix
	order  []int // this client's current pass over the files
	at     int   // index into order of the file being scanned
	pos    int64 // bytes of it already read
	opened bool  // the schedule has opened its first file
	fd     int   // descriptor of the file being scanned
	hotFds []int
	buf    []byte
	hotBuf []byte
}

func (k *coldClient) shuffle() {
	for i := len(k.order) - 1; i > 0; i-- {
		j := k.r.intn(i + 1)
		k.order[i], k.order[j] = k.order[j], k.order[i]
	}
}

func (k *coldClient) next() op {
	if k.mix.side(k.r) {
		return op{class: classSide, a: int64(k.r.intn(coldHotFiles))}
	}
	reopen := int64(0)
	if !k.opened || k.pos == int64(k.st.sz.coldFileSize) {
		reopen = 1
		if k.opened {
			k.at++
		}
		k.opened = true
		if k.at == len(k.order) {
			k.at = 0
			k.shuffle()
		}
		k.pos = 0
	}
	o := op{class: classMain, kind: uint8(reopen), a: int64(k.order[k.at]), b: k.pos}
	k.pos += coldReadSize
	return o
}

func (k *coldClient) do(c fsConn, o op) (int, error) {
	if o.class == classSide {
		// The hot probe: is the small hot set still cached, data and
		// metadata, while the scan streams through the pool?
		size, err := c.Stat(filePath("/coldhot", int(o.a)))
		if err != nil {
			return 0, err
		}
		if size != coldHotSize {
			return 0, fmt.Errorf("hot probe: size %d", size)
		}
		if err := c.Seek(k.hotFds[o.a], 0); err != nil {
			return 0, err
		}
		return 0, readExact(c, k.hotFds[o.a], k.hotBuf, k.st.hot[o.a])
	}
	if o.kind == 1 {
		if k.fd >= 0 {
			fd := k.fd
			k.fd = -1
			if err := c.Close(fd); err != nil {
				return 0, err
			}
		}
		fd, err := c.Open(filePath("/cold", int(o.a)), false)
		if err != nil {
			return 0, err
		}
		k.fd = fd
	}
	return 0, readExact(c, k.fd, k.buf, k.st.shadow[o.a][o.b:o.b+coldReadSize])
}

// ---- tx_write ----

const (
	txFileSize  = 1 << 20
	txMainBytes = 64 << 10
	txSideBytes = 512
	txSlots     = txFileSize / txMainBytes
	txSideOne   = 2 // side op share: 1 in 2
)

type txClient struct {
	st    *state
	r     *rng
	mix   mix
	first int // this client owns files [first, first+count)
	count int
	buf   []byte
}

func (t *txClient) next() op {
	o := op{class: classMain, a: int64(t.first + t.r.intn(t.count)),
		b: int64(t.r.intn(txSlots)) * txMainBytes, c: int64(t.r.next() >> 1)}
	o.wbytes = txMainBytes
	if t.mix.side(t.r) {
		o.class, o.wbytes = classSide, txSideBytes
	}
	return o
}

func (t *txClient) do(c fsConn, o op) (int, error) {
	p := t.buf[:o.wbytes]
	newRng(o.c, 0).fill(p)
	if err := c.Begin(); err != nil {
		return 0, err
	}
	fd, err := c.Open(filePath("/tx", int(o.a)), true)
	if err != nil {
		return 0, err
	}
	if err := c.Seek(fd, o.b); err != nil {
		return 0, err
	}
	if n, err := c.Write(fd, p); err != nil || n != len(p) {
		return 0, fmt.Errorf("write: n=%d err=%v", n, err)
	}
	if err := c.Close(fd); err != nil {
		return 0, err
	}
	if err := c.Commit(); err != nil {
		return 0, err
	}
	// Acknowledged: from here on the bytes must read back.
	copy(t.st.shadow[o.a][o.b:], p)
	return 0, nil
}

// ---- meta_query ----

const (
	metaSideOne = 60 // side op share: 1 in 60
)

var metaQuery = fmt.Sprintf("retrieve (filename, size(file)) where size(file) > %d", bigThreshold)

// Kinds of meta_query main op: the three links of a chain.
const (
	metaCreate = iota
	metaRename
	metaUnlink
)

type metaClient struct {
	st   *state
	r    *rng
	mix  mix
	idx  int
	step uint8 // next link of the chain in flight
	dir  int64 // its directory
	seq  int64 // its number
}

func (m *metaClient) next() op {
	if m.mix.side(m.r) {
		return op{class: classSide}
	}
	if m.step == metaCreate {
		m.dir = int64(m.r.intn(baseDirs))
		m.seq++
	}
	o := op{class: classMain, kind: m.step, a: m.dir, b: m.seq}
	m.step = (m.step + 1) % 3
	return o
}

// chainName is the name a chain's file has before (created) and after
// (renamed) its second link.
func (m *metaClient) chainName(seq int64, renamed bool) string {
	if renamed {
		return fmt.Sprintf("r%d_%d", m.idx, seq)
	}
	return fmt.Sprintf("n%d_%d", m.idx, seq)
}

func (m *metaClient) do(c fsConn, o op) (int, error) {
	if o.class == classSide {
		rows, err := c.Query(metaQuery)
		if err != nil {
			return 0, err
		}
		names := make([]string, len(rows))
		for i, row := range rows {
			if len(row) != 2 || row[1].I <= bigThreshold {
				return len(rows), fmt.Errorf("query: bad row %v", row)
			}
			names[i] = row[0].S
		}
		sort.Strings(names)
		if fmt.Sprint(names) != fmt.Sprint(m.st.bigNames) {
			return len(rows), fmt.Errorf("query returned %v, want %v", names, m.st.bigNames)
		}
		return len(rows), nil
	}
	dir := baseDir(int(o.a))
	created := dir + "/" + m.chainName(o.b, false)
	renamed := dir + "/" + m.chainName(o.b, true)
	switch o.kind {
	case metaCreate:
		fd, err := c.Creat(created)
		if err != nil {
			return 0, err
		}
		return 0, c.Close(fd)
	case metaRename:
		return 0, c.Rename(created, renamed)
	default:
		return 0, c.Unlink(renamed)
	}
}

// inFlight names the file this client's unfinished chain has left in
// its directory, if any.
func (m *metaClient) inFlight() (dir int64, name string, ok bool) {
	switch m.step {
	case metaRename:
		return m.dir, m.chainName(m.seq, false), true
	case metaUnlink:
		return m.dir, m.chainName(m.seq, true), true
	}
	return 0, "", false
}

func verifyMeta(c fsConn, st *state, clients []client) error {
	for d := 0; d < baseDirs; d++ {
		var want []string
		for f := range st.baseSize[d] {
			want = append(want, baseName(f))
		}
		for _, cl := range clients {
			if dir, name, ok := cl.(*metaClient).inFlight(); ok && dir == int64(d) {
				want = append(want, name)
			}
		}
		got, err := c.ReadDir(baseDir(d))
		if err != nil {
			return err
		}
		sort.Strings(want)
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("%s lists %d names, want %d: got %v", baseDir(d), len(got), len(want), got)
		}
	}
	return nil
}

// workloads is the registry; BENCHMARK.json lists the same names (the
// smoke test compares them).
var workloads = []*workload{
	{
		name: "hot_read",
		why: "1 MB of open files in a 2.4 MB pool: wire framing, chunk lookup, heap copy-out and the " +
			"buffer hit path do all the work; the device, eviction and commit do none",
		mainOp:    "PLseek + PRead of 8 KB at a random 8 KB offset of an open 64 KB file",
		sideOp:    "Stat of a random base file (1 in 8)",
		tracedOps: 4000,
		populate: func(c fsConn, st *state, seed int64) (err error) {
			st.shadow, err = populateFiles(c, st, seed, streamData, "/hot", hotFiles, hotFileSize)
			return err
		},
		newClient: func(c fsConn, st *state, idx, n int, seed int64) (client, error) {
			fds, err := openAll(c, "/hot", hotFiles)
			return &hotClient{st: st, r: newRng(seed, streamClients+uint64(idx)), mix: mix{one: hotSideOne}, fds: fds,
				buf: make([]byte, hotReadSize)}, err
		},
		verify: func(c fsConn, st *state, _ []client) error { return verifyFiles(c, "/hot", st.shadow) },
		intent: intentHotRead,
	},
	{
		name: "cold_scan",
		why: "24 MB of 2 MB files streamed through a 2.4 MB pool: buffer miss, eviction and " +
			"FileDisk.ReadPage dominate; the side op shows whether the scan evicts the hot set",
		mainOp:    "one 64 KB PRead of a sequential whole-file scan (close and open the next file at EOF)",
		sideOp:    "hot probe: Stat + 8 KB read of one of 8 small files (1 in 16)",
		tracedOps: 800,
		populate: func(c fsConn, st *state, seed int64) (err error) {
			if st.shadow, err = populateFiles(c, st, seed, streamData, "/cold", st.sz.coldFiles, st.sz.coldFileSize); err != nil {
				return err
			}
			st.hot, err = populateFiles(c, st, seed, streamHot, "/coldhot", coldHotFiles, coldHotSize)
			return err
		},
		newClient: func(c fsConn, st *state, idx, n int, seed int64) (client, error) {
			hotFds, err := openAll(c, "/coldhot", coldHotFiles)
			k := &coldClient{st: st, r: newRng(seed, streamClients+uint64(idx)), mix: mix{one: coldSideOne}, fd: -1, hotFds: hotFds,
				buf: make([]byte, coldReadSize), hotBuf: make([]byte, coldHotSize)}
			for i := 0; i < st.sz.coldFiles; i++ {
				k.order = append(k.order, i)
			}
			k.shuffle()
			return k, err
		},
		verify: func(c fsConn, st *state, _ []client) error {
			return verifyFiles(c, "/coldhot", st.hot)
		},
		intent: intentColdScan,
	},
	{
		name: "tx_write",
		why: "transactional overwrites beside the reads above on the same heap, B-tree, pool and device: " +
			"no-overwrite insert, index insert, data flush, log force, fsync; main minus side is the data-volume cost",
		mainOp:    "PBegin, POpen, PLseek, PWrite 64 KB at a random 64 KB offset of a 1 MB file, PClose, PCommit",
		sideOp:    "the same transaction with a 512 B payload (1 in 2)",
		tracedOps: 250,
		populate: func(c fsConn, st *state, seed int64) (err error) {
			st.shadow, err = populateFiles(c, st, seed, streamData, "/tx", st.sz.txFiles, txFileSize)
			return err
		},
		newClient: func(c fsConn, st *state, idx, n int, seed int64) (client, error) {
			per := st.sz.txFiles / n
			return &txClient{st: st, r: newRng(seed, streamClients+uint64(idx)), mix: mix{one: txSideOne}, first: idx * per, count: per,
				buf: make([]byte, txMainBytes)}, nil
		},
		verify: func(c fsConn, st *state, _ []client) error { return verifyFiles(c, "/tx", st.shadow) },
		intent: intentDurable,
	},
	{
		name: "meta_query",
		why: "autocommit namespace mutations (name locks, naming and fileatt B-trees, one commit each) beside a " +
			"full-namespace POSTQUEL scan; no chunk data path",
		mainOp:    "one link of a create, rename, unlink chain on a fresh name in a random base directory",
		sideOp:    "retrieve (filename, size(file)) where size(file) > 1100, returning exactly 9 rows (1 in 60)",
		tracedOps: 300,
		populate:  func(fsConn, *state, int64) error { return nil },
		newClient: func(c fsConn, st *state, idx, n int, seed int64) (client, error) {
			return &metaClient{st: st, r: newRng(seed, streamClients+uint64(idx)), mix: mix{one: metaSideOne}, idx: idx}, nil
		},
		verify: verifyMeta,
		intent: intentDurable,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
