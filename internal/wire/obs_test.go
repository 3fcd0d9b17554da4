package wire

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/typefuncs"
)

// findValue returns a named counter/gauge value from a snapshot section.
func findValue(t *testing.T, section []obs.NamedValue, name string) int64 {
	t.Helper()
	for _, nv := range section {
		if nv.Name == name {
			return nv.Value
		}
	}
	t.Fatalf("metric %q not in snapshot", name)
	return 0
}

func findHist(s obs.Snapshot, name string) (obs.HistogramSnapshot, bool) {
	for _, h := range s.Hists {
		if h.Name == name {
			return h, true
		}
	}
	return obs.HistogramSnapshot{}, false
}

// TestStatsV2RoundTrip drives real traffic through a server and checks
// that the statsv2 reply decodes into a snapshot whose per-layer series
// reflect that traffic.
func TestStatsV2RoundTrip(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr, "obs")

	fd, err := c.PCreat("/obs.txt", core.CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(strings.Repeat("metrics! ", 1024))
	if _, err := c.PWrite(fd, payload); err != nil {
		t.Fatal(err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}
	fd, err = c.POpen("/obs.txt", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if _, err := c.PRead(fd, buf); err != nil {
		t.Fatal(err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}

	snap, err := c.StatsV2()
	if err != nil {
		t.Fatal(err)
	}
	if got := findValue(t, snap.Counters, "wire.requests"); got < 6 {
		t.Errorf("wire.requests = %d, want >= 6", got)
	}
	if got := findValue(t, snap.Counters, "wire.bytes_out"); got < int64(len(payload)) {
		t.Errorf("wire.bytes_out = %d, want >= %d", got, len(payload))
	}
	// The gauges are read from the buffer pool when the snapshot is taken.
	if got := findValue(t, snap.Gauges, "buffer.capacity_pages"); got != 128 {
		t.Errorf("buffer.capacity_pages = %d, want 128", got)
	}
	// Per-op latency histograms: the ops we issued must have samples.
	for _, op := range []string{"creat", "write", "open", "read", "close"} {
		h, ok := findHist(snap, "wire.op."+op+"_ns")
		if !ok {
			t.Errorf("histogram wire.op.%s_ns missing", op)
			continue
		}
		if h.Count < 1 {
			t.Errorf("wire.op.%s_ns count = 0, want >= 1", op)
		}
		if h.SumNs <= 0 {
			t.Errorf("wire.op.%s_ns sum = %d, want > 0", op, h.SumNs)
		}
	}
	// Buffer shards are merged by name, not here: the raw snapshot must
	// retain shard-level detail. At least one shard saw a hit.
	var shardHits int64
	for _, nv := range snap.Counters {
		if strings.HasPrefix(nv.Name, "buffer.shard") && strings.HasSuffix(nv.Name, ".hits") {
			shardHits += nv.Value
		}
	}
	if shardHits == 0 {
		t.Error("no buffer.shardNN.hits recorded across any shard")
	}

	// Ordering: the snapshot contract is sorted names in each section.
	for i := 1; i < len(snap.Counters); i++ {
		if snap.Counters[i-1].Name >= snap.Counters[i].Name {
			t.Fatalf("counters not sorted: %q before %q",
				snap.Counters[i-1].Name, snap.Counters[i].Name)
		}
	}

	// A second scrape must never go backwards.
	snap2, err := c.StatsV2()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := findValue(t, snap.Counters, "wire.requests"), findValue(t, snap2.Counters, "wire.requests"); b <= a {
		t.Errorf("wire.requests not monotonic: %d then %d", a, b)
	}
}

// crawlMem real-sleeps on every backend page transfer, so a request's
// wall time is dominated by charges the buffer pool attributes to its
// span. The sleep is outside any device lock.
type crawlMem struct {
	*device.Mem
	delay time.Duration
}

func (m crawlMem) ReadPage(rel device.OID, page uint32, buf []byte) error {
	time.Sleep(m.delay)
	return m.Mem.ReadPage(rel, page, buf)
}

func (m crawlMem) WritePage(rel device.OID, page uint32, buf []byte) error {
	time.Sleep(m.delay)
	return m.Mem.WritePage(rel, page, buf)
}

// TestSpanAttributionCoversWall is the acceptance check for the span
// plumbing: with a device slow enough that backend transfers dominate,
// the per-layer charges on a request's span (lock wait + buffer loads +
// buffer writes + commit force) must sum to within 5% of the measured
// wall latency. Untimed CPU between charges is the only slack, so a
// large gap means a layer lost track of time it spent.
func TestSpanAttributionCoversWall(t *testing.T) {
	if testing.Short() {
		t.Skip("real-sleep device")
	}
	// Large enough that the request's uncharged CPU (chunk encoding,
	// compression, catalog work — a few ms total) stays under the 5%
	// budget next to the charged device time. Race builds inflate that
	// CPU 10-20x, so the floor is relaxed there (race_on_test.go).
	const delay = 25 * time.Millisecond

	sw := device.NewSwitch()
	sw.Register(crawlMem{device.NewMem(nil, 0), delay})
	var mu sync.Mutex
	tick := int64(1 << 40)
	db, err := core.Open(sw, core.Options{
		// Far smaller than the working set, so the read below misses.
		Buffers: 8,
		TimeSource: func() int64 {
			mu.Lock()
			defer mu.Unlock()
			tick += 1000
			return tick
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := typefuncs.RegisterAll(db.NewSession("setup")); err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(db, ServerConfig{})
	srv.SetLogf(func(string, ...any) {})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, addr, "attr")

	fd, err := c.PCreat("/big.bin", core.CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 200<<10)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := c.PWrite(fd, data); err != nil {
		t.Fatal(err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}
	fd, err = c.POpen("/big.bin", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PRead(fd, make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}

	spans := srv.Traces().Slowest()
	if len(spans) == 0 {
		t.Fatal("trace ring is empty")
	}
	// Check every span slow enough for timing noise not to matter: at
	// >= 10 device delays of wall, scheduler jitter is well under 5%.
	checked := 0
	for _, sp := range spans {
		if sp.WallNs < int64(10*delay) {
			continue
		}
		checked++
		sum := sp.LockWaitNs + sp.BufLoadNs + sp.BufWriteNs + sp.CommitNs
		ratio := float64(sum) / float64(sp.WallNs)
		t.Logf("op=%s wall=%s lock=%s load=%s write=%s force=%s sum/wall=%.3f",
			sp.Op, obs.FormatNs(sp.WallNs), obs.FormatNs(sp.LockWaitNs),
			obs.FormatNs(sp.BufLoadNs), obs.FormatNs(sp.BufWriteNs),
			obs.FormatNs(sp.CommitNs), ratio)
		if ratio < spanAttributionFloor {
			t.Errorf("op %s: per-layer sum %s covers only %.1f%% of wall %s (floor %.0f%%)",
				sp.Op, obs.FormatNs(sum), ratio*100, obs.FormatNs(sp.WallNs),
				spanAttributionFloor*100)
		}
		if ratio > 1.02 {
			t.Errorf("op %s: per-layer sum %s exceeds wall %s (double-charged?)",
				sp.Op, obs.FormatNs(sum), obs.FormatNs(sp.WallNs))
		}
		if sp.Outcome != "ok" {
			t.Errorf("op %s outcome = %q, want ok", sp.Op, sp.Outcome)
		}
	}
	if checked == 0 {
		t.Fatalf("no span exceeded %v wall; slowest was %s",
			10*delay, obs.FormatNs(spans[0].WallNs))
	}
}

// TestSlowOpLog checks the -slow-op path: with a threshold of 1ns every
// request logs a per-layer breakdown line.
func TestSlowOpLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	db := newTestDB(t)
	srv := NewServerWith(db, ServerConfig{SlowOp: time.Nanosecond})
	// Installed before Listen: logf must not change once conns exist.
	srv.SetLogf(func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, addr, "slow")
	if err := c.Mkdir("/slowdir"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, ln := range lines {
		if strings.Contains(ln, "slow op mkdir") && strings.Contains(ln, "wall=") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no slow-op line for mkdir in %d log lines: %q", len(lines), lines)
	}
}
