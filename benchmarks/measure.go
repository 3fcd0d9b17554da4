package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// nClients is the closed-loop client count of every end-to-end run: one
// wire.Client connection per vCPU of the sandbox this was calibrated on.
// Inversion clients are library callers that wait for each reply, so the
// loop is closed: a slower server receives less load.
const nClients = 2

// runConfig sizes one end-to-end run. The driver's defaults are
// defaultRun; the smoke test shrinks every field.
type runConfig struct {
	baseDir string        // where volumes are created
	clients int           // closed-loop connections
	setups  int           // set-ups timed; the last volume is used
	warmup  time.Duration // same mix, discarded
	window  time.Duration // measured
	rounds  int           // the window is cut into this many rounds
	sz      sizes
}

const roundLen = 2 * time.Second

// defaultRun measures the whole 2 s rounds that fit in seconds, so a
// round is the same length whatever the window.
func defaultRun(baseDir string, seconds int) runConfig {
	rounds := int(time.Duration(seconds) * time.Second / roundLen)
	return runConfig{baseDir: baseDir, clients: nClients, setups: 3, warmup: 3 * time.Second,
		window: time.Duration(rounds) * roundLen, rounds: rounds, sz: fullSizes}
}

// bench is one populated volume.
type bench struct {
	w   *workload
	vol *volume
	st  *state
}

// setUp is what setup_s times: directory, bootstrap, listen, dial,
// populate (base tree, then the workload's files), flush and sync.
func setUp(w *workload, seed int64, baseDir string, cfg volConfig, sz sizes) (*bench, error) {
	vol, err := openVolume(baseDir, cfg)
	if err != nil {
		return nil, err
	}
	st := &state{sz: sz}
	c := vol.conns[0]
	err = populateBase(c, st, seed)
	if err == nil {
		err = w.populate(c, st, seed)
	}
	if err == nil {
		err = vol.flush()
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("set-up %s: %w", w.name, err), vol.close())
	}
	return &bench{w: w, vol: vol, st: st}, nil
}

// newClients prepares one client per connection.
func (b *bench) newClients(seed int64) ([]client, error) {
	clients := make([]client, len(b.vol.conns))
	for i, c := range b.vol.conns {
		var err error
		if clients[i], err = b.w.newClient(c, b.st, i, len(clients), seed); err != nil {
			return nil, fmt.Errorf("client %d of %s: %w", i, b.w.name, err)
		}
	}
	return clients, nil
}

// sample is one completed, correct op.
type sample struct {
	end   time.Duration // completion, since the loop started
	lat   time.Duration
	class opClass
}

// tally counts ops by class.
type tally [numClasses]int64

func (t tally) total() int64 { return t[classMain] + t[classSide] }

// loopStats is what one client's closed loop saw.
type loopStats struct {
	samples   []sample
	attempted tally
	failed    tally
	firstErr  error
}

// closedLoop issues the client's ops back to back until the deadline.
// An op that errors or returns wrong bytes is failed and contributes no
// latency sample.
func closedLoop(cl client, c fsConn, start time.Time, until time.Duration) loopStats {
	ls := loopStats{samples: make([]sample, 0, 1<<16)}
	for {
		t0 := time.Since(start)
		if t0 >= until {
			return ls
		}
		o := cl.next()
		_, err := cl.do(c, o)
		t1 := time.Since(start)
		ls.attempted[o.class]++
		if err != nil {
			ls.failed[o.class]++
			if ls.firstErr == nil {
				ls.firstErr = fmt.Errorf("%s op %+v: %w", o.class, o, err)
			}
			continue
		}
		ls.samples = append(ls.samples, sample{end: t1, lat: t1 - t0, class: o.class})
	}
}

// e2eResult is one end-to-end run.
type e2eResult struct {
	metrics   map[string]float64 // by end-to-end metric name
	attempted tally
	failed    tally
	checkErr  error // first failed op or failed output check; nil = correct

	// What only the traced report uses.
	mainP99us float64
	roundCV   float64
	mainN     int
	sideN     int
	conc      concCounters
}

// concCounters are engine counters that only mean something under
// concurrency; the traced report takes them from a 2-client run.
type concCounters struct {
	ops           int64
	lockWaits     int64
	loadWaits     int64
	writebacks    int64
	bgWritebacks  int64
	gcBatches     int64
	gcBatchedTxns int64
}

func readConc(v *volume) concCounters {
	ps := v.db.Pool().Stats()
	c := concCounters{
		lockWaits:    v.db.Manager().Locks().Waits(),
		loadWaits:    ps.LoadWaits,
		writebacks:   ps.Writebacks,
		bgWritebacks: ps.BGWritebacks,
	}
	reg := v.db.Obs()
	c.gcBatches = reg.Counter("txn.group_commit.batches").Load()
	// forces_saved counts members - 1 per batch.
	c.gcBatchedTxns = reg.Counter("txn.group_commit.forces_saved").Load() + c.gcBatches
	return c
}

func (a concCounters) sub(b concCounters) concCounters {
	return concCounters{a.ops - b.ops, a.lockWaits - b.lockWaits, a.loadWaits - b.loadWaits,
		a.writebacks - b.writebacks, a.bgWritebacks - b.bgWritebacks,
		a.gcBatches - b.gcBatches, a.gcBatchedTxns - b.gcBatchedTxns}
}

// runE2E is one end-to-end run of one workload: set-up (timed, several
// times), warm-up, the measured window, the output checks.
func runE2E(w *workload, seed int64, rc runConfig) (res *e2eResult, err error) {
	var b *bench
	setupTimes := make([]float64, 0, rc.setups)
	for i := 0; i < rc.setups; i++ {
		if b != nil {
			if err := b.vol.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if b, err = setUp(w, seed, rc.baseDir, shippedConfig(rc.clients), rc.sz); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := b.vol.close(); err == nil {
			err = cerr
		}
	}()
	clients, err := b.newClients(seed)
	if err != nil {
		return nil, err
	}

	// Closed loop: every client runs warm-up and window in one go; the
	// window is cut out of the samples afterwards by completion time.
	stats := make([]loopStats, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i] = closedLoop(clients[i], b.vol.conns[i], start, rc.warmup+rc.window)
		}(i)
	}
	var m0, m1 runtime.MemStats
	time.Sleep(time.Until(start.Add(rc.warmup)))
	runtime.ReadMemStats(&m0)
	c0 := readConc(b.vol)
	time.Sleep(time.Until(start.Add(rc.warmup + rc.window)))
	runtime.ReadMemStats(&m1)
	c1 := readConc(b.vol)
	wg.Wait()

	res = &e2eResult{metrics: make(map[string]float64)}
	var lats [numClasses][]float64
	roundOps := make([]float64, rc.rounds)
	roundMain := make([][]float64, rc.rounds)
	rlen := rc.window / time.Duration(rc.rounds)
	for _, ls := range stats {
		for c := range ls.attempted {
			res.attempted[c] += ls.attempted[c]
			res.failed[c] += ls.failed[c]
		}
		if res.checkErr == nil {
			res.checkErr = ls.firstErr
		}
		for _, s := range ls.samples {
			r := int((s.end - rc.warmup) / rlen)
			if s.end < rc.warmup || r >= rc.rounds {
				continue
			}
			us := float64(s.lat) / float64(time.Microsecond)
			lats[s.class] = append(lats[s.class], us)
			roundOps[r]++
			if s.class == classMain {
				roundMain[r] = append(roundMain[r], us)
			}
		}
	}
	for c := range lats {
		sort.Float64s(lats[c])
	}
	if len(lats[classMain]) == 0 || len(lats[classSide]) == 0 {
		return nil, fmt.Errorf("%s: window of %v held %d main and %d side ops; it is too short",
			w.name, rc.window, len(lats[classMain]), len(lats[classSide]))
	}
	var p95s, rates []float64
	windowOps := 0.0
	for r := range roundOps {
		windowOps += roundOps[r]
		rates = append(rates, roundOps[r]/rlen.Seconds())
		if len(roundMain[r]) > 0 {
			sort.Float64s(roundMain[r])
			p95s = append(p95s, quantile(roundMain[r], 0.95))
		}
	}
	res.metrics["ops_per_s"] = median(rates)
	res.metrics["main_p50_us"] = quantile(lats[classMain], 0.5)
	res.metrics["main_p95_us"] = median(p95s)
	res.metrics["side_p50_us"] = quantile(lats[classSide], 0.5)
	res.metrics["alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / windowOps
	res.metrics["setup_s"] = median(setupTimes)
	res.mainP99us = quantile(lats[classMain], 0.99)
	res.roundCV = stddev(rates) / mean(rates)
	res.mainN, res.sideN = len(lats[classMain]), len(lats[classSide])
	res.conc = c1.sub(c0)
	res.conc.ops = int64(windowOps)

	if res.checkErr == nil {
		if verr := w.verify(b.vol.conns[0], b.st, clients); verr != nil {
			res.checkErr = fmt.Errorf("%s output check: %w", w.name, verr)
		}
	}
	return res, nil
}

// quantile of an ascending slice: the smallest value with at least a
// share q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func stddev(v []float64) float64 {
	m, ss := mean(v), 0.0
	for _, x := range v {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss / float64(len(v)))
}

// benchDir is where volumes and outputs go: BENCH_DIR, else the
// system temp directory.
func benchDir() (string, error) {
	dir := os.Getenv("BENCH_DIR")
	if dir == "" {
		return os.TempDir(), nil
	}
	return dir, os.MkdirAll(dir, 0o755)
}
