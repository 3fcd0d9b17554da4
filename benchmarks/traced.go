package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/device"
	"repro/internal/obs"
)

// The traced run is where the per-layer numbers come from. It is a
// separate run so that the end-to-end numbers are always taken with all
// of this off: one client, a fixed op count from the same generator,
// the same schedule executed four times on fresh volumes.
type passKind int

const (
	// passWire: over TCP, device decorated, a span around every client
	// call. The source of every count.
	passWire passKind = iota
	// passLocal: the same ops in-process on core.Session, device
	// decorated. wire self time = passWire - passLocal.
	passLocal
	// passPlain: passWire without decorator or spans. Tracing overhead
	// = passWire / passPlain.
	passPlain
	// passNoSampling: passPlain with the wait-event sampler off.
	passNoSampling
)

func (k passKind) String() string {
	return [...]string{"wire", "local", "plain", "nosampling"}[k]
}

// Counted passes run without the background writer: its 50 ms trickle
// is the one timer that changes how often a page reaches the device, and
// the counts must repeat exactly. What it does under load is reported
// from the 2-client section instead (buffer.bg_writeback_share).
func (k passKind) config() volConfig {
	cfg := volConfig{clients: 1, waitSampling: obs.DefaultWaitSamplingInterval}
	switch k {
	case passWire:
		cfg.traced = true
	case passLocal:
		cfg.traced, cfg.clients = true, 0
	case passNoSampling:
		cfg.waitSampling = 0
	}
	return cfg
}

// Engine counts bracketed around every op of a pass: buffer pool
// outcomes, then calls and nanoseconds of each device op.
const (
	cHits = iota
	cMisses
	cEvictions
	cWritebacks
	cDevCalls                         // + devOp
	cDevNs    = cDevCalls + numDevOps // + devOp
	numCounts = cDevNs + numDevOps
)

type counts [numCounts]int64

func readCounts(v *volume) counts {
	ps := v.db.Pool().Stats()
	c := counts{cHits: ps.Hits, cMisses: ps.Misses, cEvictions: ps.Evictions, cWritebacks: ps.Writebacks}
	if v.dev != nil {
		for op := devOp(0); op < numDevOps; op++ {
			c[cDevCalls+op] = v.dev.calls[op].Load()
			c[cDevNs+op] = v.dev.ns[op].Load()
		}
	}
	return c
}

// addDelta adds to - from.
func (a *counts) addDelta(to, from counts) {
	for i := range a {
		a[i] += to[i] - from[i]
	}
}

func (a counts) gets() int64        { return a[cHits] + a[cMisses] }
func (a counts) dev(op devOp) int64 { return a[cDevCalls+op] }

func (a counts) devBusyNs() (ns int64) {
	for op := devOp(0); op < numDevOps; op++ {
		ns += a[cDevNs+op]
	}
	return ns
}

// devMeanUs is the mean time of one call of op, in microseconds.
func (a counts) devMeanUs(op devOp) float64 {
	return ratio(float64(a[cDevNs+op])/1000, float64(a[cDevCalls+op]))
}

// passResult is one single-client pass.
type passResult struct {
	ops       tally
	failed    tally
	opTime    [numClasses]time.Duration // summed client-observed op time
	eng       [numClasses]counts        // engine work, by the class of the op it happened under
	rows      int64                     // query rows returned
	userBytes int64                     // file bytes the ops wrote
	calls     int64                     // client calls made (traced passes)
	wireBytes int64                     // bytes in + out at the server
	commits   int64
	forces    int64
	forceP50  float64 // us
	statusHit int64
	statusMis int64
	alloc     uint64 // TotalAlloc over the pass
	fileBytes int64  // backing file size after set-up
	setupUser int64  // file bytes set-up wrote
	checkErr  error
}

func (p *passResult) all() counts {
	var all counts
	for c := range p.eng {
		all.addDelta(p.eng[c], counts{})
	}
	return all
}

func (p *passResult) meanOpUs() float64 {
	return float64(p.opTime[classMain]+p.opTime[classSide]) / float64(time.Microsecond) / float64(p.ops.total())
}

// txnCounts reads the transaction layer's counters.
type txnCounts struct {
	force              obs.HistogramSnapshot
	forces             int64
	statusHit, statusM int64
	wireBytes          int64
}

func readTxn(v *volume) txnCounts {
	reg := v.db.Obs()
	t := txnCounts{
		force:     reg.Histogram("txn.commit_force_ns").Snapshot(""),
		forces:    v.db.Manager().Log().Forces(),
		wireBytes: reg.Counter("wire.bytes_in").Load() + reg.Counter("wire.bytes_out").Load(),
	}
	t.statusHit, t.statusM = v.db.Manager().StatusCacheStats()
	return t
}

// runPass executes the first n ops of client 0's schedule on a fresh
// volume. spanOut, if not empty, is where a traced pass dumps its spans.
func runPass(w *workload, seed int64, kind passKind, n int, tc tracedConfig, spanOut string) (res *passResult, err error) {
	b, err := setUp(w, seed, tc.baseDir, kind.config(), tc.sz)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := b.vol.close(); err == nil {
			err = cerr
		}
	}()
	res = &passResult{setupUser: b.st.userBytes}
	if res.fileBytes, err = b.vol.fileBytes(); err != nil {
		return nil, err
	}
	tr := b.vol.tr
	var sc *spanConn
	if tr != nil {
		prefix := "wire"
		if kind == passLocal {
			prefix = "core"
		}
		sc = &spanConn{inner: b.vol.conns[0], tr: tr, prefix: prefix}
		b.vol.conns[0] = sc
	}
	clients, err := b.newClients(seed)
	if err != nil {
		return nil, err
	}
	cl, conn := clients[0], b.vol.conns[0]

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := readTxn(b.vol)
	if tr != nil {
		sc.calls = 0
		tr.on.Store(true)
	}
	before := readCounts(b.vol)
	for i := 0; i < n; i++ {
		o := cl.next()
		var id uint64
		var spanStart int64
		if tr != nil {
			id, spanStart = tr.beginOp()
		}
		start := time.Now()
		rows, derr := cl.do(conn, o)
		d := time.Since(start)
		if tr != nil {
			tr.endOp(id, w.name+"."+o.class.String(), spanStart)
		}
		after := readCounts(b.vol)
		res.eng[o.class].addDelta(after, before)
		before = after
		res.ops[o.class]++
		if derr != nil {
			res.failed[o.class]++
			if res.checkErr == nil {
				res.checkErr = fmt.Errorf("%s pass, %s op %+v: %w", kind, o.class, o, derr)
			}
			continue
		}
		res.opTime[o.class] += d
		res.rows += int64(rows)
		res.userBytes += o.wbytes
	}
	if tr != nil {
		tr.on.Store(false)
		res.calls = sc.calls
	}
	t1 := readTxn(b.vol)
	runtime.ReadMemStats(&m1)

	res.alloc = m1.TotalAlloc - m0.TotalAlloc
	res.forces = t1.forces - t0.forces
	res.statusHit, res.statusMis = t1.statusHit-t0.statusHit, t1.statusM-t0.statusM
	res.wireBytes = t1.wireBytes - t0.wireBytes
	delta := t1.force
	delta.Count -= t0.force.Count
	for i := range delta.Buckets {
		delta.Buckets[i] -= t0.force.Buckets[i]
	}
	res.commits = delta.Count
	res.forceP50 = float64(delta.Quantile(0.5)) / 1000

	if res.checkErr == nil {
		if verr := w.verify(conn, b.st, clients); verr != nil {
			res.checkErr = fmt.Errorf("%s pass output check: %w", kind, verr)
		}
	}
	if tr != nil && spanOut != "" {
		if werr := tr.write(spanOut); werr != nil {
			return nil, werr
		}
	}
	return res, nil
}

// tracedConfig sizes a traced run; the smoke test shrinks it.
type tracedConfig struct {
	baseDir string
	outDir  string        // span dumps; "" = none
	opScale float64       // share of each workload's tracedOps to run
	warmup  time.Duration // the 2-client section: discarded
	window  time.Duration // the 2-client section: measured
	rounds  int
	sz      sizes
}

func defaultTraced(baseDir, outDir string) tracedConfig {
	return tracedConfig{baseDir: baseDir, outDir: outDir, opScale: 1, warmup: time.Second, window: 6 * time.Second, rounds: 6,
		sz: fullSizes}
}

// tracedResult is the traced run of one workload.
type tracedResult struct {
	metrics   map[string]float64
	wire      *passResult // the counted pass
	local     *passResult // the same schedule in-process
	e2e       *e2eResult  // the 2-client section
	attempted tally
	failed    tally
	checkErr  error
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced produces every per-layer metric that depends on the
// workload; the probes (runProbes) do not, and run once per invocation.
func runTraced(w *workload, seed int64, tc tracedConfig) (*tracedResult, error) {
	n := int(float64(w.tracedOps) * tc.opScale)
	var passes [4]*passResult
	out := &tracedResult{metrics: make(map[string]float64)}
	for k := passWire; k <= passNoSampling; k++ {
		spanOut := ""
		if tc.outDir != "" && k <= passLocal {
			spanOut = filepath.Join(tc.outDir, fmt.Sprintf("spans-%s-%s.jsonl", w.name, k))
		}
		p, err := runPass(w, seed, k, n, tc, spanOut)
		if err != nil {
			return nil, err
		}
		passes[k] = p
		for c := range p.ops {
			out.attempted[c] += p.ops[c]
			out.failed[c] += p.failed[c]
		}
		if out.checkErr == nil {
			out.checkErr = p.checkErr
		}
	}
	a, b, c, d := passes[passWire], passes[passLocal], passes[passPlain], passes[passNoSampling]
	out.wire, out.local = a, b
	ops := float64(a.ops.total())
	m := out.metrics

	m["wire.op_us"] = a.meanOpUs()
	m["wire.self_us_per_op"] = a.meanOpUs() - b.meanOpUs()
	m["wire.calls_per_op"] = float64(a.calls) / ops
	m["wire.bytes_per_op"] = float64(a.wireBytes) / ops
	m["core.op_us"] = b.meanOpUs()
	m["core.self_us_per_op"] = b.meanOpUs() - float64(b.all().devBusyNs())/1000/float64(b.ops.total())
	m["core.alloc_kb_per_op"] = float64(b.alloc) / 1024 / float64(b.ops.total())

	m["query.pages_touched_per_row"] = ratio(float64(a.eng[classSide].gets()), float64(a.rows))

	m["txn.commits_per_op"] = float64(a.commits) / ops
	m["txn.forces_per_commit"] = ratio(float64(a.forces), float64(a.commits))
	m["txn.commit_force_p50_us"] = a.forceP50
	m["txn.status_cache_hit_ratio"] = ratio(float64(a.statusHit), float64(a.statusHit+a.statusMis))

	all := a.all()
	m["buffer.gets_per_op"] = float64(all.gets()) / ops
	m["buffer.hit_ratio"] = ratio(float64(all[cHits]), float64(all.gets()))
	m["buffer.misses_per_op"] = float64(all[cMisses]) / ops
	m["buffer.evictions_per_op"] = float64(all[cEvictions]) / ops
	m["buffer.writebacks_per_op"] = float64(all[cWritebacks]) / ops

	m["device.reads_per_op"] = float64(all.dev(devRead)) / ops
	m["device.writes_per_op"] = float64(all.dev(devWrite)) / ops
	m["device.syncs_per_op"] = float64(all.dev(devSync)) / ops
	m["device.extends_per_op"] = float64(all.dev(devExtend)) / ops
	m["device.read_us"] = all.devMeanUs(devRead)
	m["device.write_us"] = all.devMeanUs(devWrite)
	m["device.sync_us"] = all.devMeanUs(devSync)
	m["device.busy_us_per_op"] = float64(all.devBusyNs()) / 1000 / ops
	m["device.syncs_per_commit"] = ratio(float64(all.dev(devSync)), float64(a.commits))
	m["device.bytes_written_per_user_byte"] = ratio(float64(all.dev(devWrite)*device.PageSize), float64(a.userBytes))
	m["device.file_bytes_per_user_byte"] = ratio(float64(a.fileBytes), float64(a.setupUser))

	m["trace.overhead_ratio"] = ratio(a.meanOpUs(), c.meanOpUs())
	m["obs.wait_sampling_overhead_ratio"] = ratio(c.meanOpUs(), d.meanOpUs())

	// The 2-client section: the numbers that only exist under
	// concurrency, and the run's own noise gauge.
	e2e, err := runE2E(w, seed, runConfig{baseDir: tc.baseDir, clients: nClients, setups: 1, warmup: tc.warmup,
		window: tc.window, rounds: tc.rounds, sz: tc.sz})
	if err != nil {
		return nil, err
	}
	out.e2e = e2e
	for cl := range e2e.attempted {
		out.attempted[cl] += e2e.attempted[cl]
		out.failed[cl] += e2e.failed[cl]
	}
	if out.checkErr == nil {
		out.checkErr = e2e.checkErr
	}
	cc := e2e.conc
	m["txn.lock_waits_per_op"] = float64(cc.lockWaits) / float64(cc.ops)
	m["txn.group_commit.mean_batch"] = ratio(float64(cc.gcBatchedTxns), float64(cc.gcBatches))
	m["buffer.load_waits_per_op"] = float64(cc.loadWaits) / float64(cc.ops)
	m["buffer.bg_writeback_share"] = ratio(float64(cc.bgWritebacks), float64(cc.writebacks))
	m["e2e.main_p99_us"] = e2e.mainP99us
	m["e2e.round_cv"] = e2e.roundCV

	if out.checkErr == nil {
		out.checkErr = w.intent(a)
	}
	return out, nil
}

// Intent checks fail the run when a workload has stopped stressing the
// layer it exists for: that is a benchmark bug, not a result. Each takes
// the counted pass.

func intentHotRead(a *passResult) error {
	all := a.all()
	if r := ratio(float64(all[cHits]), float64(all.gets())); r < 0.99 {
		return fmt.Errorf("hot_read: buffer hit ratio %.4f < 0.99: the data no longer fits the pool", r)
	}
	return nil
}

// Index pages are re-read from the pool for every chunk, so cold_scan's
// hit ratio stays near 0.7 however cold the data is; what shows that the
// scan still streams is that the data pages of a read (8 of them) come
// from the device. The pool may still hold the pages set-up wrote last
// when the pass starts; beyond that one pool's worth, at least three
// quarters must be device reads.
func intentColdScan(a *passResult) error {
	touched := a.ops[classMain] * (coldReadSize / device.PageSize)
	if got, want := a.eng[classMain].dev(devRead), (touched-poolPages)*3/4; got < want {
		return fmt.Errorf("cold_scan: %d device reads for %d data pages read, want at least %d: the scan is being served from the pool",
			got, touched, want)
	}
	return nil
}

// intentDurable: no commit may be acknowledged without a device sync.
func intentDurable(a *passResult) error {
	if syncs := a.all().dev(devSync); a.commits == 0 || syncs < a.commits {
		return fmt.Errorf("%d commits acknowledged with %d device syncs", a.commits, syncs)
	}
	return nil
}
