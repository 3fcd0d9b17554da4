package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/txn"
	"repro/internal/value"
)

// newHistDB opens an in-memory database with metrics history enabled at
// an interval long enough that the recorder goroutine never fires on
// its own — tests drive ticks manually for determinism.
func newHistDB(t *testing.T) *DB {
	t.Helper()
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	var mu sync.Mutex
	tick := int64(1 << 20)
	db, err := Open(sw, Options{
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
	return db
}

// scanTicks reads every inv_history row visible to snap.
func scanTicks(t *testing.T, db *DB, snap *txn.Snapshot) []HistoryTick {
	t.Helper()
	var out []HistoryTick
	err := db.dataRel(HistoryRel).Scan(snap, func(_ heap.TID, payload []byte) (bool, error) {
		tk, err := decodeHistoryTick(payload)
		if err != nil {
			return false, err
		}
		out = append(out, tk)
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// scanSamples reads every inv_history_samples row for one series.
func scanSamples(t *testing.T, db *DB, snap *txn.Snapshot, name string) map[int64]obs.HistorySample {
	t.Helper()
	out := make(map[int64]obs.HistorySample)
	err := db.dataRel(HistorySamplesRel).Scan(snap, func(_ heap.TID, payload []byte) (bool, error) {
		seq, s, err := decodeHistorySample(payload)
		if err != nil {
			return false, err
		}
		if s.Name == name {
			out[seq] = s
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHistoryDisabledByDefault(t *testing.T) {
	db, s := newDB(t)
	if err := db.RecordMetricsTick(); !errors.Is(err, ErrHistoryDisabled) {
		t.Fatalf("RecordMetricsTick = %v, want ErrHistoryDisabled", err)
	}
	// Work happens, relations are still never created.
	if err := s.WriteFile("/f", []byte("x"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	for _, oid := range []device.OID{HistoryRel, HistorySamplesRel} {
		if _, ok := db.cat.RelationByOID(oid); ok {
			t.Fatalf("relation %d created with history disabled", oid)
		}
	}
	if _, ok := db.SysViews().Lookup(HistoryRelName); ok {
		t.Fatal("SysViews resolves inv_history with history disabled")
	}
}

func TestHistoryTickRecordedAndQueryable(t *testing.T) {
	db := newHistDB(t)
	s := db.NewSession("hist")
	if err := s.WriteFile("/f", []byte("payload"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	db.Obs().Counter("test.hist.counter").Add(10)
	db.Obs().GaugeFunc("test.hist.gauge", func() int64 { return 4 })
	if err := db.RecordMetricsTick(); err != nil {
		t.Fatal(err)
	}
	db.Obs().Counter("test.hist.counter").Add(7)
	if err := db.RecordMetricsTick(); err != nil {
		t.Fatal(err)
	}

	snap := db.mgr.CurrentSnapshot()
	ticks := scanTicks(t, db, snap)
	if len(ticks) != 2 {
		t.Fatalf("got %d ticks, want 2: %+v", len(ticks), ticks)
	}
	for i, tk := range ticks {
		if tk.Seq != int64(i+1) || tk.Level != HistoryLevelRaw || tk.Dropped {
			t.Fatalf("tick %d: %+v", i, tk)
		}
	}
	cs := scanSamples(t, db, snap, "test.hist.counter")
	if cs[1].Value != 10 || cs[2].Value != 7 {
		t.Fatalf("counter deltas: %+v, want 10 then 7", cs)
	}
	if cs[1].Kind != obs.SampleCounter {
		t.Fatalf("kind = %q", cs[1].Kind)
	}
	gs := scanSamples(t, db, snap, "test.hist.gauge")
	if gs[1].Value != 4 || gs[2].Value != 4 || gs[1].Kind != obs.SampleGauge {
		t.Fatalf("gauge points: %+v", gs)
	}

	// The inv_history_meta catalog sees the series.
	meta, _ := db.SysViews().Lookup("inv_history_meta")
	found := false
	err := meta.Scan(nil, func(r []value.V) error {
		if r[0].S == "test.hist.counter" {
			found = true
			// ticks, first_seq, last_seq, last_value
			if r[3].I != 2 || r[4].I != 1 || r[5].I != 2 || r[6].F != 7 {
				t.Errorf("meta row: %v", r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("test.hist.counter missing from inv_history_meta")
	}

	// The query engine resolves the stored relations with schemas.
	rel, ok := db.SysViews().Lookup(HistorySamplesRelName)
	if !ok || len(rel.Columns) != 5 {
		t.Fatalf("SysViews().Lookup(%s): ok=%v rel=%+v", HistorySamplesRelName, ok, rel)
	}
}

func TestHistorySurvivesCrashAndAsOf(t *testing.T) {
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	var mu sync.Mutex
	tick := int64(1 << 20)
	opts := Options{
		Buffers: 128,
		TimeSource: func() int64 {
			mu.Lock()
			defer mu.Unlock()
			tick += 1000
			return tick
		},
		MetricsHistory: time.Hour,
	}
	db, err := Open(sw, opts)
	if err != nil {
		t.Fatal(err)
	}
	db.Obs().Counter("test.crash.counter").Add(3)
	if err := db.RecordMetricsTick(); err != nil {
		t.Fatal(err)
	}
	preCrash := db.mgr.LastCommitTime()

	db.Crash()
	db, err = db.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// History recorded before the crash is intact, and the sequence
	// resumes monotonically.
	if got := scanTicks(t, db, db.mgr.CurrentSnapshot()); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("post-recovery ticks: %+v", got)
	}
	db.Obs().Counter("test.crash.counter").Add(5)
	if err := db.RecordMetricsTick(); err != nil {
		t.Fatal(err)
	}
	ticks := scanTicks(t, db, db.mgr.CurrentSnapshot())
	if len(ticks) != 2 || ticks[0].Seq+ticks[1].Seq != 3 {
		t.Fatalf("ticks after recovery: %+v", ticks)
	}

	// asof a pre-crash instant sees only the pre-crash tick.
	old := scanTicks(t, db, db.mgr.AsOf(preCrash))
	if len(old) != 1 || old[0].Seq != 1 {
		t.Fatalf("asof pre-crash ticks: %+v", old)
	}
	// The fresh recorder's differ starts from zero, so the post-recovery
	// tick records the counter's full cumulative value: nothing that
	// happened before the crash is silently lost.
	cs := scanSamples(t, db, db.mgr.CurrentSnapshot(), "test.crash.counter")
	if cs[1].Value != 3 {
		t.Fatalf("pre-crash delta: %+v", cs)
	}
}

func TestHistoryRetentionLadder(t *testing.T) {
	db := newHistDB(t)

	// Drive the recorder's wall clock by hand.
	base := time.Date(2026, 8, 8, 12, 0, 10, 0, time.UTC)
	now := base
	db.hist.now = func() time.Time { return now }

	db.Obs().Counter("test.ret.counter").Add(10)
	var gauge atomic.Int64
	db.Obs().GaugeFunc("test.ret.gauge", gauge.Load)
	gauge.Store(4)
	if err := db.RecordMetricsTick(); err != nil { // seq 1 @ base
		t.Fatal(err)
	}
	now = base.Add(30 * time.Second)
	db.Obs().Counter("test.ret.counter").Add(10)
	gauge.Store(8)
	if err := db.RecordMetricsTick(); err != nil { // seq 2 @ base+30s
		t.Fatal(err)
	}

	// Jump past RawFor: the next tick's retention pass rolls seqs 1–2
	// into one 1-minute window and deletes the raw rows.
	now = base.Add(historyRawFor + 2*time.Minute)
	if err := db.RecordMetricsTick(); err != nil { // seq 3, triggers rollup
		t.Fatal(err)
	}
	snap := db.mgr.CurrentSnapshot()
	ticks := scanTicks(t, db, snap)
	var raw, roll []HistoryTick
	for _, tk := range ticks {
		if tk.Level == HistoryLevelRollup {
			roll = append(roll, tk)
		} else {
			raw = append(raw, tk)
		}
	}
	if len(raw) != 1 || raw[0].Seq != 3 {
		t.Fatalf("raw ticks after rollup: %+v", raw)
	}
	window := base.Truncate(time.Minute).UnixNano()
	if len(roll) != 1 || roll[0].WallNs != window || roll[0].IntervalNs != int64(time.Minute) {
		t.Fatalf("rollup ticks: %+v (want wall %d)", roll, window)
	}
	cs := scanSamples(t, db, snap, "test.ret.counter")
	if got := cs[roll[0].Seq]; got.Value != 20 { // counter deltas sum
		t.Fatalf("rolled-up counter: %+v", got)
	}
	gs := scanSamples(t, db, snap, "test.ret.gauge")
	if got := gs[roll[0].Seq]; got.Value != 6 { // gauge points average
		t.Fatalf("rolled-up gauge: %+v", got)
	}

	// Jump past RollupFor: the rollup itself expires.
	now = now.Add(historyRollupFor + time.Hour)
	if err := db.RecordMetricsTick(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range scanTicks(t, db, db.mgr.CurrentSnapshot()) {
		if tk.WallNs == window {
			t.Fatalf("expired rollup still visible: %+v", tk)
		}
	}

	// Vacuum physically reclaims the deleted versions (discard mode — the
	// history relations never feed the archive).
	stats, err := db.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed == 0 {
		t.Fatalf("vacuum removed nothing: %+v", stats)
	}
	if stats.Archived != 0 {
		t.Fatalf("history versions were archived: %+v", stats)
	}
}

// TestHistoryVacuumRacesRollupQuery: a long-running query holding a
// pre-retention snapshot keeps seeing the raw ticks while retention
// deletes them and vacuum runs — MVCC protects history readers exactly
// as it protects file readers.
func TestHistoryVacuumRacesRollupQuery(t *testing.T) {
	db := newHistDB(t)
	base := time.Date(2026, 8, 8, 12, 0, 10, 0, time.UTC)
	now := base
	db.hist.now = func() time.Time { return now }

	db.Obs().Counter("test.race.counter").Add(5)
	if err := db.RecordMetricsTick(); err != nil {
		t.Fatal(err)
	}

	// The "rollup query": a reader transaction whose snapshot predates
	// retention. It holds the horizon, so vacuum must not reclaim what
	// it can still see.
	reader, err := db.mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	readerSnap := db.mgr.CurrentSnapshotFor(reader.ID())

	now = base.Add(historyRawFor + 2*time.Minute)
	if err := db.RecordMetricsTick(); err != nil { // retention expires seq 1
		t.Fatal(err)
	}
	if _, err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}

	var sawRaw bool
	for _, tk := range scanTicks(t, db, readerSnap) {
		if tk.Seq == 1 && tk.Level == HistoryLevelRaw {
			sawRaw = true
		}
	}
	if !sawRaw {
		t.Fatal("pre-retention snapshot lost the raw tick under concurrent vacuum")
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}

	// Reader gone: now the dead raw versions may actually go.
	if _, err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range scanTicks(t, db, db.mgr.CurrentSnapshot()) {
		if tk.Seq == 1 && tk.Level == HistoryLevelRaw {
			t.Fatalf("expired raw tick still visible to a fresh snapshot: %+v", tk)
		}
	}
}

// TestHistoryDroppedTickFlag: when a recording transaction loses to
// device backpressure, the attempt aborts cleanly and the next tick
// that lands carries the dropped flag.
func TestHistoryDroppedTickFlag(t *testing.T) {
	faulty := device.NewFaulty(device.NewMem(nil, 0), 1)
	sw := device.NewSwitch()
	sw.Register(faulty)
	var mu sync.Mutex
	tick := int64(1 << 20)
	db, err := Open(sw, Options{
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
	defer db.Close()

	var armed bool
	faulty.FailIf(device.FaultExtend, func(rel device.OID, _ uint32) bool {
		return armed && rel == HistoryRel
	}, nil)

	armed = true
	if err := db.RecordMetricsTick(); err == nil {
		t.Fatal("tick succeeded under injected extend fault")
	}
	armed = false

	if err := db.RecordMetricsTick(); err != nil {
		t.Fatal(err)
	}
	if err := db.RecordMetricsTick(); err != nil {
		t.Fatal(err)
	}
	ticks := scanTicks(t, db, db.mgr.CurrentSnapshot())
	if len(ticks) != 2 {
		t.Fatalf("got %d ticks: %+v", len(ticks), ticks)
	}
	if !ticks[0].Dropped {
		t.Fatalf("first landed tick not flagged dropped: %+v", ticks[0])
	}
	if ticks[1].Dropped {
		t.Fatalf("healthy tick flagged dropped: %+v", ticks[1])
	}
	if db.Obs().Counter("history.ticks_dropped").Load() == 0 {
		t.Fatal("ticks_dropped counter not bumped")
	}
}

// TestHistoryRecorderStopIdempotent: Close halts the recorder before
// the pool shuts down, twice-Close is safe, and a live recorder under a
// fast interval shuts down cleanly mid-traffic.
func TestHistoryRecorderStopIdempotent(t *testing.T) {
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	db, err := Open(sw, Options{
		Buffers:        128,
		MetricsHistory: time.Millisecond, // real ticks, fast
	})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession("stopper")
	for i := 0; i < 5; i++ {
		if err := s.WriteFile("/f", []byte("spin"), CreateOpts{}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	db.hist.halt() // and directly re-halting the recorder is a no-op
}
