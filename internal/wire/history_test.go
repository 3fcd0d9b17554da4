package wire

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
)

// startHistoryServer is startServer over a database with metrics
// history enabled (manual ticks — the interval never fires in-test).
func startHistoryServer(t *testing.T) (string, *core.DB) {
	t.Helper()
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	var mu sync.Mutex
	tick := int64(1 << 40)
	db, err := core.Open(sw, core.Options{
		Buffers: 128,
		TimeSource: func() int64 {
			mu.Lock()
			defer mu.Unlock()
			tick += 1000
			return tick
		},
		MetricsHistory: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	srv := NewServer(db)
	srv.SetLogf(func(string, ...any) {})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, db
}

// TestHistoryAsOfReplayOverWire: a past tick replays over the ordinary
// query op with asof — the path inv top -asof uses.
func TestHistoryAsOfReplayOverWire(t *testing.T) {
	addr, db := startHistoryServer(t)
	c := dial(t, addr, "mao")

	db.Obs().Counter("test.wire.counter").Add(11)
	if err := db.RecordMetricsTick(); err != nil {
		t.Fatal(err)
	}
	before := db.Manager().LastCommitTime()
	db.Obs().Counter("test.wire.counter").Add(4)
	if err := db.RecordMetricsTick(); err != nil {
		t.Fatal(err)
	}

	live, err := c.Query(`retrieve (s.seq, s.value) from s in inv_history_samples where s.name = "test.wire.counter" sort by s.seq`)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Rows) != 2 || live.Rows[1][1].F != 4 {
		t.Fatalf("live rows = %v", live.Rows)
	}

	// Replay the past instant: only the first tick existed then.
	past, err := c.Query(fmt.Sprintf(
		`retrieve (s.seq, s.value) from s in inv_history_samples where s.name = "test.wire.counter" asof %d`, before))
	if err != nil {
		t.Fatal(err)
	}
	if len(past.Rows) != 1 || past.Rows[0][0].I != 1 || past.Rows[0][1].F != 11 {
		t.Fatalf("asof rows = %v", past.Rows)
	}

	// The tick metadata replays the same way (inv top joins on seq).
	tickRow, err := c.Query(fmt.Sprintf(
		`retrieve (h.seq, h.wall_ns) from h in inv_history sort by h.seq desc limit 1 asof %d`, before))
	if err != nil {
		t.Fatal(err)
	}
	if len(tickRow.Rows) != 1 || tickRow.Rows[0][0].I != 1 {
		t.Fatalf("asof tick = %v", tickRow.Rows)
	}
}
