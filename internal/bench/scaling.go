package bench

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/txn"
)

// Wall-clock scaling workloads: unlike the paper-shape benchmarks, which
// replay 1993 hardware on a simulated clock, these measure the
// implementation's own throughput as concurrency is added, over devices
// that real-sleep per access with a buffer pool smaller than the working
// set. Each row isolates one thing the stack must overlap to scale:
//
//   - read-mostly and mixed: capacity misses. A pool that holds a lock
//     across ReadPage serializes every seek and stays at ~1x; the sharded
//     pool does backend I/O outside its locks, so misses overlap.
//   - write-heavy: the commit force. Every op is its own transaction on a
//     device whose Sync dominates (data flush + log force, a sync each),
//     which is the cost group commit amortizes over a batch of committers.
//   - meta-storm: namespace page loads. Pure create/stat/rename traffic
//     whose working set misses the pool, so clients meet on the naming
//     and fileatt relations, their index roots and the name locks.
//
// The tier-1 floors over these rows are TestScalingFloors in the repo
// root; BenchmarkConcurrentScaling regenerates the published curves.
const (
	WorkloadRead  = "read-mostly" // ReadFile/Stat/ReadDir over shared files
	WorkloadMixed = "mixed"       // same, plus 1-in-8 private-file writes
	WorkloadWrite = "write-heavy" // every op overwrites a private file and commits
	WorkloadMeta  = "meta-storm"  // 50% mkdir, 37.5% stat, 12.5% directory-crossing rename
)

const (
	scalingFiles    = 32       // shared read set
	scalingFileSize = 3 * 4096 // a few chunks per file

	metaDirsPerG      = 8    // private directories per client
	metaEntriesPerDir = 4096 // prepopulated entries per directory
	metaRenameReserve = 32   // entries per dir reserved as rename sources
)

// latency is a sleeping device's real-time cost per access.
type latency struct{ read, write, sync time.Duration }

// sleepDisk is an in-memory page store that real-sleeps per access while
// its gate is set (prepopulation and Close run at memory speed; only the
// timed region pays). The sleep happens outside the store's mutex: the
// device accepts concurrent requests and whether the callers above can
// issue them concurrently is what gets measured.
type sleepDisk struct {
	*device.Mem
	lat  latency
	gate *atomic.Bool
}

func (d *sleepDisk) wait(lat time.Duration) {
	if lat == 0 || !d.gate.Load() {
		return
	}
	time.Sleep(lat)
}

func (d *sleepDisk) ReadPage(rel device.OID, page uint32, buf []byte) error {
	d.wait(d.lat.read)
	return d.Mem.ReadPage(rel, page, buf)
}

func (d *sleepDisk) WritePage(rel device.OID, page uint32, buf []byte) error {
	d.wait(d.lat.write)
	return d.Mem.WritePage(rel, page, buf)
}

func (d *sleepDisk) Sync() error {
	d.wait(d.lat.sync)
	return d.Mem.Sync()
}

// Spec sizes one measurement.
type Spec struct {
	Workload   string
	Goroutines int // concurrent clients
	OpsPerG    int // timed ops per client
	// Meta-storm namespace sizing; 0 picks the full-size defaults.
	DirsPerG, EntriesPerDir int
}

// workload is one row of the table: a device, an engine configuration,
// a prepopulated state and an op stream.
type workload struct {
	name    string
	txBatch int     // ops per explicit transaction
	lat     latency // of the one sleepDisk that holds everything
	opts    core.Options
	prepare func(s *core.Session, sp Spec) error
	op      func(s *core.Session, sp Spec, g, i int, buf []byte) error
}

var workloads = []workload{
	{
		name: WorkloadRead, txBatch: 64,
		lat:     latency{read: 200 * time.Microsecond, write: 200 * time.Microsecond},
		opts:    core.Options{Buffers: 64}, // < the 32 × 3-page read set
		prepare: prepareFiles, op: readOp,
	},
	{
		name: WorkloadMixed, txBatch: 64,
		lat:     latency{read: 200 * time.Microsecond, write: 200 * time.Microsecond},
		opts:    core.Options{Buffers: 64},
		prepare: prepareFiles,
		op: func(s *core.Session, sp Spec, g, i int, buf []byte) error {
			if i%8 == 3 {
				return writeOp(s, sp, g, i, buf)
			}
			return readOp(s, sp, g, i, buf)
		},
	},
	{
		// One write per transaction, so the measurement is commits per
		// second; background writer on and a commit window wide enough
		// to absorb a committer cohort — the deployment shape the
		// group-commit pipeline is built for.
		name: WorkloadWrite, txBatch: 1,
		lat:     latency{read: 25 * time.Microsecond, write: 25 * time.Microsecond, sync: 4 * time.Millisecond},
		opts:    core.Options{Buffers: 64, BackgroundWriter: true, GroupCommitWindow: 2 * time.Millisecond},
		prepare: prepareFiles, op: writeOp,
	},
	{
		// Reads cost a seek; writes model a queued controller and cost
		// little — the measurement targets the page loads the namespace
		// working set (≫ 192 frames) misses on, not the commit-time
		// flush.
		name: WorkloadMeta, txBatch: 64,
		lat:     latency{read: 4 * time.Millisecond, write: 20 * time.Microsecond},
		opts:    core.Options{Buffers: 192, GroupCommitWindow: 2 * time.Millisecond},
		prepare: prepareNamespace, op: metaOp,
	},
}

func scalingPath(i int) string { return fmt.Sprintf("/bench/f%02d", i) }

func scalingPrivPath(g int) string { return fmt.Sprintf("/bench/w%d", g) }

// prepareFiles commits the shared read set and one private write file
// per client, then reads the set once so the timed region starts from
// steady state: hot metadata settles into the pool and only the data
// pages keep thrashing.
func prepareFiles(s *core.Session, sp Spec) error {
	if err := s.Mkdir("/bench"); err != nil {
		return err
	}
	data := make([]byte, scalingFileSize)
	for i := range data {
		data[i] = byte(i)
	}
	for i := 0; i < scalingFiles; i++ {
		if err := s.WriteFile(scalingPath(i), data, core.CreateOpts{}); err != nil {
			return err
		}
	}
	for g := 0; g < sp.Goroutines; g++ {
		if err := s.WriteFile(scalingPrivPath(g), data[:1024], core.CreateOpts{}); err != nil {
			return err
		}
	}
	for i := 0; i < scalingFiles; i++ {
		if _, err := s.ReadFile(scalingPath(i)); err != nil {
			return err
		}
	}
	return nil
}

func readOp(s *core.Session, _ Spec, g, i int, _ []byte) error {
	switch {
	case i%16 == 15:
		_, err := s.ReadDir("/bench")
		return err
	case i%8 == 7:
		_, err := s.Stat(scalingPath((g*7 + i) % scalingFiles))
		return err
	default:
		_, err := s.ReadFile(scalingPath((g*13 + i) % scalingFiles))
		return err
	}
}

func writeOp(s *core.Session, _ Spec, g, _ int, buf []byte) error {
	return s.WriteFile(scalingPrivPath(g), buf, core.CreateOpts{})
}

// metaDirPath keeps client directories directly under the root: the
// measured ops are two-component paths, so per-op CPU stays small next
// to the device sleeps the clients overlap.
func metaDirPath(g, d int) string { return fmt.Sprintf("/m%d_%d", g, d) }

// metaEntryName is globally unique across a client's directories so a
// rename into any sibling directory can never collide.
func metaEntryName(d, k int) string { return fmt.Sprintf("e%d_%d", d, k) }

// prepareNamespace gives every client DirsPerG private directories of
// EntriesPerDir entries each (entries are directories too — a mkdir is
// the pure metadata create, touching only naming/fileatt and their
// indexes), in explicit transactions so it is not one commit force per
// mkdir.
func prepareNamespace(s *core.Session, sp Spec) error {
	for g := 0; g < sp.Goroutines; g++ {
		for d := 0; d < sp.DirsPerG; d++ {
			if err := s.Mkdir(metaDirPath(g, d)); err != nil {
				return err
			}
		}
	}
	for g := 0; g < sp.Goroutines; g++ {
		for d := 0; d < sp.DirsPerG; d++ {
			for k := 0; k < sp.EntriesPerDir; {
				if err := s.Begin(); err != nil {
					return err
				}
				for j := 0; j < 256 && k < sp.EntriesPerDir; j++ {
					if err := s.Mkdir(metaDirPath(g, d) + "/" + metaEntryName(d, k)); err != nil {
						return err
					}
					k++
				}
				if err := s.Commit(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// metaOp has no listings: a ReadDir walks one directory's index range
// and would only dilute the create/lookup mix.
func metaOp(s *core.Session, sp Spec, g, i int, _ []byte) error {
	switch {
	case i%8 == 5:
		// Move a reserved prepopulated entry to the next directory over.
		// i/8 numbers the renames, so each source is used once, the name
		// stays unique, and a batch retried after a deadlock repeats the
		// same moves.
		j := i / 8
		d := j % sp.DirsPerG
		name := metaEntryName(d, (j/sp.DirsPerG)%metaRenameReserve)
		return s.Rename(metaDirPath(g, d)+"/"+name,
			metaDirPath(g, (d+1)%sp.DirsPerG)+"/"+name+"x")
	case i%4 != 3:
		return s.Mkdir(metaDirPath(g, (i*5)%sp.DirsPerG) + fmt.Sprintf("/c%d", i))
	default:
		// Stride the key so lookups cover the whole directory instead
		// of a cached prefix: the point is a random probe that has to
		// load a leaf and a heap page, not a warm re-read.
		d := (i * 7) % sp.DirsPerG
		k := metaRenameReserve + (i*131)%(sp.EntriesPerDir-metaRenameReserve)
		_, err := s.Stat(metaDirPath(g, d) + "/" + metaEntryName(d, k))
		return err
	}
}

// open builds the row's device (gated off) and opens a database on it.
func (w *workload) open(gate *atomic.Bool) (*core.DB, error) {
	sw := device.NewSwitch()
	sw.Register(&sleepDisk{Mem: device.NewMem(nil, 0), lat: w.lat, gate: gate})
	return core.Open(sw, w.opts)
}

// runBatches runs client g's op stream in explicit transactions of
// txBatch ops each, retrying a batch that loses a deadlock.
func (w *workload) runBatches(db *core.DB, sp Spec, g int) error {
	s := db.NewSession(fmt.Sprintf("bench-%d", g))
	buf := make([]byte, 1024)
	for i := range buf {
		buf[i] = byte(g)
	}
	for done := 0; done < sp.OpsPerG; {
		n := min(w.txBatch, sp.OpsPerG-done)
		if err := s.Begin(); err != nil {
			return err
		}
		var err error
		for j := 0; j < n && err == nil; j++ {
			err = w.op(s, sp, g, done+j, buf)
		}
		if err != nil {
			aerr := s.Abort()
			if errors.Is(err, txn.ErrDeadlock) && aerr == nil {
				continue
			}
			return errors.Join(err, aerr)
		}
		if err := s.Commit(); err != nil {
			return err
		}
		done += n
	}
	return nil
}

// timeWorkers runs fn on n goroutines and reports the wall time until
// the last one returns.
func timeWorkers(n int, fn func(g int) error) (time.Duration, error) {
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = fn(g)
		}(g)
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// ScalingPoint is one measurement.
type ScalingPoint struct {
	Spec
	Ops       int
	Elapsed   time.Duration
	OpsPerSec float64
	Speedup   float64      // over the first point of the same RunScaling call
	Obs       obs.Snapshot // post-run metrics registry
}

// RunPoint measures one point on a fresh prepopulated database.
func RunPoint(sp Spec) (ScalingPoint, error) {
	for i := range workloads {
		if workloads[i].name == sp.Workload {
			return workloads[i].run(sp)
		}
	}
	return ScalingPoint{}, fmt.Errorf("bench: unknown scaling workload %q", sp.Workload)
}

func (w *workload) run(sp Spec) (ScalingPoint, error) {
	if sp.DirsPerG <= 0 {
		sp.DirsPerG = metaDirsPerG
	}
	if sp.EntriesPerDir <= 0 {
		sp.EntriesPerDir = metaEntriesPerDir
	}
	// The first metaRenameReserve entries per directory are rename
	// sources; lookups stride over the rest, so there must be a rest.
	if sp.EntriesPerDir <= metaRenameReserve {
		sp.EntriesPerDir = 2 * metaRenameReserve
	}
	gate := new(atomic.Bool)
	db, err := w.open(gate)
	if err != nil {
		return ScalingPoint{}, err
	}
	defer db.Close()
	if err := w.prepare(db.NewSession("bench"), sp); err != nil {
		return ScalingPoint{}, err
	}
	gate.Store(true)
	elapsed, err := timeWorkers(sp.Goroutines, func(g int) error { return w.runBatches(db, sp, g) })
	gate.Store(false)
	if err != nil {
		return ScalingPoint{}, err
	}
	ops := sp.Goroutines * sp.OpsPerG
	return ScalingPoint{
		Spec:      sp,
		Ops:       ops,
		Elapsed:   elapsed,
		OpsPerSec: float64(ops) / elapsed.Seconds(),
		Obs:       db.Obs().Snapshot(),
	}, nil
}

// RunScaling measures the specs in order and fills in each point's
// speedup over the first (the g=1 baseline).
func RunScaling(specs ...Spec) ([]ScalingPoint, error) {
	points := make([]ScalingPoint, 0, len(specs))
	for i, sp := range specs {
		pt, err := RunPoint(sp)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
		points[i].Speedup = pt.OpsPerSec / points[0].OpsPerSec
	}
	return points, nil
}
