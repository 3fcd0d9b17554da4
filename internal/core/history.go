package core

import (
	"errors"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/device"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/rowenc"
	"repro/internal/sysview"
	"repro/internal/txn"
	"repro/internal/value"
)

// Metrics history: the engine as its own observability backend. The
// registry, trace ring, and flight recorder are all scrape-or-lose
// state; here an opt-in recorder periodically diffs the registry (via
// obs.HistoryDiffer) and appends the per-tick samples into two real
// system relations, so the full POSTQUEL surface — including asof —
// works on the system's own history, across its own crash recoveries.
//
// The recorder is wall-clock paced and never reads the virtual commit
// clock (TimeSource): tick timestamps are observability truth, not
// transaction time, and the simulated-clock benchmark digits must stay
// byte-identical whether or not history is enabled. When disabled (the
// default) the relations are never created and no recorder goroutine
// exists.

// Well-known OIDs for the metrics-history relations. Like the other
// system OIDs they sit below FirstUserOID; the relations are created
// lazily at first enable and registered in the system catalog, which
// buys reopen re-placement, CheckMedia coverage, and inv_relations
// visibility for free. They carry no naming rows, so they are invisible
// to ReadDir, and their names differ from DataRelName(oid), so the
// chunk-table vacuum loop and scrub's chunk checks skip them.
const (
	HistoryRel        device.OID = 17 // inv_history: one row per tick
	HistorySamplesRel device.OID = 18 // inv_history_samples: tick × metric
)

// Names the history relations are catalogued (and queried) under.
const (
	HistoryRelName        = "inv_history"
	HistorySamplesRelName = "inv_history_samples"
)

// Tick levels: raw recorder ticks and retention rollups.
const (
	HistoryLevelRaw    = 0
	HistoryLevelRollup = 1
)

// ErrHistoryDisabled is returned by history APIs when the database was
// opened without Options.MetricsHistory.
var ErrHistoryDisabled = errors.New("inversion: metrics history not enabled")

// The retention ladder: raw ticks are kept historyRawFor, then
// aggregated into historyRollupEvery-wide level-1 ticks which are kept
// historyRollupFor; everything older is deleted (and physically
// reclaimed by the next vacuum).
const (
	historyRawFor      = time.Hour
	historyRollupEvery = time.Minute
	historyRollupFor   = 24 * time.Hour
)

// HistoryTick is one inv_history row: the metadata of a recorded tick.
// Dropped marks a tick whose predecessor(s) failed to record (the gap
// before this tick lost data), so replay tools can render the hole
// honestly instead of interpolating across it.
type HistoryTick struct {
	Seq        int64
	WallNs     int64
	IntervalNs int64
	Level      uint32
	Dropped    bool
}

func encodeHistoryTick(t HistoryTick) []byte {
	var dropped uint32
	if t.Dropped {
		dropped = 1
	}
	return rowenc.NewWriter(40).
		Int64(t.Seq).Int64(t.WallNs).Int64(t.IntervalNs).
		Uint32(t.Level).Uint32(dropped).Done()
}

func decodeHistoryTick(b []byte) (HistoryTick, error) {
	r := rowenc.NewReader(b)
	t := HistoryTick{
		Seq:        r.Int64(),
		WallNs:     r.Int64(),
		IntervalNs: r.Int64(),
		Level:      r.Uint32(),
	}
	t.Dropped = r.Uint32() != 0
	return t, r.Err()
}

func encodeHistorySample(seq int64, s obs.HistorySample) []byte {
	return rowenc.NewWriter(48 + len(s.Name) + len(s.Labels)).
		Int64(seq).String(s.Name).String(s.Labels).String(s.Kind).
		Uint64(math.Float64bits(s.Value)).Done()
}

func decodeHistorySample(b []byte) (seq int64, s obs.HistorySample, err error) {
	r := rowenc.NewReader(b)
	seq = r.Int64()
	s.Name = r.String()
	s.Labels = r.String()
	s.Kind = r.String()
	s.Value = math.Float64frombits(r.Uint64())
	return seq, s, r.Err()
}

// historyRecorder owns the recording goroutine and the tick sequence.
// All mutation of history state (recorder ticks, the loader path, and
// retention) runs under mu, so ticks never interleave.
type historyRecorder struct {
	db       *DB
	interval time.Duration
	now      func() time.Time // wall clock; injectable in tests

	mu      sync.Mutex
	differ  *obs.HistoryDiffer
	seq     int64 // last assigned tick seq
	seqInit bool
	dropped bool // a recording attempt failed since the last good tick

	haltMu sync.Mutex // halt is idempotent and callable concurrently
	stop   chan struct{}
	done   chan struct{}
}

func newHistoryRecorder(db *DB, interval time.Duration) *historyRecorder {
	return &historyRecorder{
		db:       db,
		interval: interval,
		now:      time.Now,
		differ:   obs.NewHistoryDiffer(),
	}
}

func (r *historyRecorder) start() {
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go r.loop(r.stop, r.done)
}

func (r *historyRecorder) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			// Errors are deliberately dropped: the failure is already
			// accounted (ticks_dropped counter + the next tick's dropped
			// flag), and the next tick retries.
			_ = r.recordTick(stop)
		}
	}
}

// halt stops the recording goroutine and waits for it to exit; an
// in-flight recording transaction aborts cleanly (recordTick checks
// the stop channel before committing). Idempotent.
func (r *historyRecorder) halt() {
	if r == nil {
		return
	}
	r.haltMu.Lock()
	defer r.haltMu.Unlock()
	if r.stop == nil {
		return
	}
	close(r.stop)
	<-r.done
	r.stop = nil
}

// ensureHistoryRels creates the history relations under tx if this is
// the first enable on this volume. Catalog registration makes them
// reopen-persistent (the re-place loop in Open) and CheckMedia-covered.
func (db *DB) ensureHistoryRels(tx *txn.Tx) error {
	rels := []struct {
		oid  device.OID
		name string
	}{
		{HistoryRel, HistoryRelName},
		{HistorySamplesRel, HistorySamplesRelName},
	}
	created := false
	for _, r := range rels {
		if _, ok := db.cat.RelationByOID(r.oid); ok {
			continue
		}
		if _, err := db.cat.CreateRelationAt(tx, r.oid, r.name, db.opts.DefaultClass, catalog.KindHeap); err != nil {
			return err
		}
		created = true
	}
	if created {
		tx.OnEnd(func(committed bool) {
			if committed {
				db.registerHistoryRels()
			}
		})
	}
	return nil
}

// initSeq resumes the tick sequence from the highest recorded seq, so
// history written before a crash and history written after recovery
// form one monotone series.
func (r *historyRecorder) initSeq(snap *txn.Snapshot) error {
	if r.seqInit {
		return nil
	}
	var maxSeq int64
	err := r.db.dataRel(HistoryRel).Scan(snap, func(_ heap.TID, payload []byte) (bool, error) {
		t, err := decodeHistoryTick(payload)
		if err != nil {
			return false, err
		}
		if t.Seq > maxSeq {
			maxSeq = t.Seq
		}
		return false, nil
	})
	if err != nil {
		return err
	}
	r.seq = maxSeq
	r.seqInit = true
	return nil
}

// recordTick records one tick: diff the registry and wait profile, and append the tick row plus its samples
// under one internal transaction. cancel, when closed before the
// commit, aborts the in-flight transaction cleanly (bounded shutdown).
// A failed attempt arms the dropped flag carried by the next tick that
// does land.
func (r *historyRecorder) recordTick(cancel <-chan struct{}) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	db := r.db
	samples := r.differ.Diff(db.metrics.Snapshot(), db.WaitProfile())
	nowNs := r.now().UnixNano()

	fail := func(err error) error {
		r.dropped = true
		db.metrics.Counter("history.ticks_dropped").Inc()
		return err
	}
	tx, err := db.mgr.Begin()
	if err != nil {
		return fail(err)
	}
	if err := db.ensureHistoryRels(tx); err != nil {
		abort(tx)
		return fail(err)
	}
	if err := r.initSeq(tx.Snapshot()); err != nil {
		abort(tx)
		return fail(err)
	}
	seq := r.seq + 1
	tick := HistoryTick{
		Seq: seq, WallNs: nowNs, IntervalNs: int64(r.interval),
		Level: HistoryLevelRaw, Dropped: r.dropped,
	}
	if _, err := db.dataRel(HistoryRel).Insert(tx.ID(), encodeHistoryTick(tick)); err != nil {
		abort(tx)
		return fail(err)
	}
	for _, s := range samples {
		if _, err := db.dataRel(HistorySamplesRel).Insert(tx.ID(), encodeHistorySample(seq, s)); err != nil {
			abort(tx)
			return fail(err)
		}
	}
	select {
	case <-cancel:
		abort(tx)
		return nil
	default:
	}
	if err := tx.Commit(); err != nil {
		return fail(err)
	}
	r.seq = seq
	r.dropped = false
	db.metrics.Counter("history.ticks_recorded").Inc()

	// Retention runs in its own transaction so a retention failure never
	// takes the recorded tick down with it.
	if err := r.retain(nowNs); err != nil {
		db.metrics.Counter("history.retention_errors").Inc()
	}
	return nil
}

type tickAt struct {
	t   HistoryTick
	tid heap.TID
}

// retain enforces the retention ladder: raw ticks older than
// historyRawFor are aggregated per historyRollupEvery window into
// level-1 ticks (counters summed, gauges and quantiles averaged) and
// deleted; rollups older than historyRollupFor are deleted outright.
// Deletion is MVCC deletion — a concurrent reader's snapshot (or an
// asof inside the budget) still sees the rows; physical reclaim belongs
// to vacuum. Caller holds mu.
func (r *historyRecorder) retain(nowNs int64) error {
	db := r.db
	cutRaw := nowNs - int64(historyRawFor)
	cutRollup := nowNs - int64(historyRollupFor)
	win := int64(historyRollupEvery)

	tx, err := db.mgr.Begin()
	if err != nil {
		return err
	}
	snap := tx.Snapshot()
	histRel := db.dataRel(HistoryRel)
	sampRel := db.dataRel(HistorySamplesRel)

	var expired []tickAt                // raw and rollup ticks past their retention
	rollWindow := make(map[int64]int64) // raw seq → its rollup window start
	windowTicks := make(map[int64][]tickAt)
	err = histRel.Scan(snap, func(tid heap.TID, payload []byte) (bool, error) {
		t, err := decodeHistoryTick(payload)
		if err != nil {
			return false, err
		}
		switch {
		case t.Level == HistoryLevelRaw && t.WallNs < cutRaw:
			at := tickAt{t, tid}
			expired = append(expired, at)
			w := t.WallNs - t.WallNs%win
			rollWindow[t.Seq] = w
			windowTicks[w] = append(windowTicks[w], at)
		case t.Level == HistoryLevelRollup && t.WallNs < cutRollup:
			expired = append(expired, tickAt{t, tid})
		}
		return false, nil
	})
	if err != nil {
		abort(tx)
		return err
	}
	if len(expired) == 0 {
		abort(tx)
		return nil
	}

	// One pass over the samples: aggregate expiring raw samples into
	// their windows and collect every expiring tick's sample TIDs.
	expiredSeq := make(map[int64]bool, len(expired))
	for _, e := range expired {
		expiredSeq[e.t.Seq] = true
	}
	type aggKey struct{ name, labels, kind string }
	type aggVal struct {
		sum float64
		n   int64
	}
	agg := make(map[int64]map[aggKey]*aggVal) // window → series → acc
	var deadSamples []heap.TID
	err = sampRel.Scan(snap, func(tid heap.TID, payload []byte) (bool, error) {
		seq, s, err := decodeHistorySample(payload)
		if err != nil {
			return false, err
		}
		if !expiredSeq[seq] {
			return false, nil
		}
		deadSamples = append(deadSamples, tid)
		w, isRaw := rollWindow[seq]
		if !isRaw {
			return false, nil
		}
		m := agg[w]
		if m == nil {
			m = make(map[aggKey]*aggVal)
			agg[w] = m
		}
		k := aggKey{s.Name, s.Labels, s.Kind}
		v := m[k]
		if v == nil {
			v = &aggVal{}
			m[k] = v
		}
		v.sum += s.Value
		v.n++
		return false, nil
	})
	if err != nil {
		abort(tx)
		return err
	}

	// Insert rollup ticks, oldest window first so seq stays time-ordered.
	windows := make([]int64, 0, len(windowTicks))
	for w := range windowTicks {
		windows = append(windows, w)
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i] < windows[j] })
	seq := r.seq
	for _, w := range windows {
		seq++
		dropped := false
		for _, m := range windowTicks[w] {
			dropped = dropped || m.t.Dropped
		}
		tick := HistoryTick{
			Seq: seq, WallNs: w, IntervalNs: win,
			Level: HistoryLevelRollup, Dropped: dropped,
		}
		if _, err := histRel.Insert(tx.ID(), encodeHistoryTick(tick)); err != nil {
			abort(tx)
			return err
		}
		keys := make([]aggKey, 0, len(agg[w]))
		for k := range agg[w] {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.name != b.name {
				return a.name < b.name
			}
			if a.labels != b.labels {
				return a.labels < b.labels
			}
			return a.kind < b.kind
		})
		for _, k := range keys {
			v := agg[w][k]
			val := v.sum // counters: deltas sum across the window
			if k.kind != obs.SampleCounter {
				val = v.sum / float64(v.n) // gauges, quantiles: mean
			}
			s := obs.HistorySample{Name: k.name, Labels: k.labels, Kind: k.kind, Value: val}
			if _, err := sampRel.Insert(tx.ID(), encodeHistorySample(seq, s)); err != nil {
				abort(tx)
				return err
			}
		}
	}
	for _, e := range expired {
		if err := histRel.Delete(tx.ID(), e.tid); err != nil {
			abort(tx)
			return err
		}
	}
	for _, tid := range deadSamples {
		if err := sampRel.Delete(tx.ID(), tid); err != nil {
			abort(tx)
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	r.seq = seq
	db.metrics.Counter("history.ticks_expired").Add(int64(len(expired)))
	db.metrics.Counter("history.rollup_ticks").Add(int64(len(windows)))
	return nil
}

// RecordMetricsTick records one metrics-history tick immediately (the
// recorder goroutine does the same on its interval). Primarily for
// tests and tools that want deterministic tick placement.
func (db *DB) RecordMetricsTick() error {
	if db.hist == nil {
		return ErrHistoryDisabled
	}
	return db.hist.recordTick(nil)
}

// registerHistoryRels adds the two history heaps to the relation
// registry, so a from clause can name them like any catalog. They are
// real MVCC heaps, hence Versioned: asof reads them through the ordinary
// historical snapshot, no bespoke reader. Called once the relations are
// catalogued — at Open on a volume that has them, and when the
// transaction that creates them commits — so until then the names stay
// unknown (history never enabled on this volume).
func (db *DB) registerHistoryRels() {
	db.views.Register(db.historyRel(HistoryRel, HistoryRelName,
		"metrics-history ticks, one row per recorded tick or retention rollup",
		[]sysview.Column{
			{Name: "seq", Kind: value.KindInt, Doc: "tick sequence number (monotone across recoveries)"},
			{Name: "wall_ns", Kind: value.KindInt, Doc: "wall-clock unix nanoseconds of the tick"},
			{Name: "interval_ns", Kind: value.KindInt, Doc: "recorder interval (rollup window width for level 1)"},
			{Name: "level", Kind: value.KindInt, Doc: "0 = raw tick, 1 = retention rollup"},
			{Name: "dropped", Kind: value.KindBool, Doc: "true when recording attempts before this tick were lost"},
		},
		func(payload []byte, row []value.V) error {
			t, err := decodeHistoryTick(payload)
			row[0], row[1], row[2] = value.Int(t.Seq), value.Int(t.WallNs), value.Int(t.IntervalNs)
			row[3], row[4] = value.Int(int64(t.Level)), value.Bool(t.Dropped)
			return err
		}))
	db.views.Register(db.historyRel(HistorySamplesRel, HistorySamplesRelName,
		"metrics-history samples, one row per tick and metric that moved",
		[]sysview.Column{
			{Name: "seq", Kind: value.KindInt, Doc: "tick this sample belongs to (join to inv_history.seq)"},
			{Name: "name", Kind: value.KindString, Doc: "metric name"},
			{Name: "labels", Kind: value.KindString, Doc: "sample labels (quantile label, wait op/rel, …)"},
			{Name: "kind", Kind: value.KindString, Doc: "counter (delta) | gauge (point) | quantile (point)"},
			{Name: "value", Kind: value.KindFloat, Doc: "sample value"},
		},
		func(payload []byte, row []value.V) error {
			seq, s, err := decodeHistorySample(payload)
			row[0], row[1], row[2] = value.Int(seq), value.Str(s.Name), value.Str(s.Labels)
			row[3], row[4] = value.Str(s.Kind), value.Float(s.Value)
			return err
		}))
}

// historyRel wraps one history heap as a versioned relation: a scan
// decodes each visible record into one row slice it reuses (rows are
// borrowed by emit).
func (db *DB) historyRel(oid device.OID, name, doc string, cols []sysview.Column, decode func(payload []byte, row []value.V) error) *sysview.Rel {
	return &sysview.Rel{
		Name: name, Doc: doc, Columns: cols, Versioned: true,
		Scan: func(snap *txn.Snapshot, emit func([]value.V) error) error {
			row := make([]value.V, len(cols))
			return db.dataRel(oid).Scan(snap, func(_ heap.TID, payload []byte) (bool, error) {
				if err := decode(payload, row); err != nil {
					return false, err
				}
				return false, emit(row)
			})
		},
	}
}

// historyMetaCatalog is inv_history_meta: the map of what the stored
// metrics history currently holds — one row per recorded series (name,
// labels, kind) with its tick span and newest value, in series order.
// Empty (not an error) while history has never been enabled on this
// volume.
func (db *DB) historyMetaCatalog() *sysview.Rel {
	return &sysview.Rel{
		Name: "inv_history_meta",
		Doc:  "recorded metrics-history series: name, labels, kind, tick span, newest value",
		Columns: []sysview.Column{
			{Name: "name", Kind: value.KindString, Doc: "metric name"},
			{Name: "labels", Kind: value.KindString, Doc: "sample labels (quantile label, wait op/rel, …)"},
			{Name: "kind", Kind: value.KindString, Doc: "counter (delta) | gauge (point) | quantile (point)"},
			{Name: "ticks", Kind: value.KindInt, Doc: "recorded sample count for this series"},
			{Name: "first_seq", Kind: value.KindInt, Doc: "oldest tick seq holding the series"},
			{Name: "last_seq", Kind: value.KindInt, Doc: "newest tick seq holding the series"},
			{Name: "last_value", Kind: value.KindFloat, Doc: "value at the newest tick"},
		},
		Scan: func(_ *txn.Snapshot, emit func([]value.V) error) error {
			if _, ok := db.cat.RelationByOID(HistorySamplesRel); !ok {
				return nil
			}
			type key struct{ name, labels, kind string }
			series := make(map[key][]value.V)
			err := db.dataRel(HistorySamplesRel).Scan(db.mgr.CurrentSnapshot(), func(_ heap.TID, payload []byte) (bool, error) {
				seq, s, err := decodeHistorySample(payload)
				if err != nil {
					return false, err
				}
				k := key{s.Name, s.Labels, s.Kind}
				r := series[k]
				if r == nil {
					r = []value.V{value.Str(s.Name), value.Str(s.Labels), value.Str(s.Kind),
						value.Int(0), value.Int(seq), value.Int(seq), value.Float(s.Value)}
					series[k] = r
				}
				r[3].I++
				if seq < r[4].I {
					r[4].I = seq
				}
				if seq >= r[5].I {
					r[5].I, r[6].F = seq, s.Value
				}
				return false, nil
			})
			if err != nil {
				return err
			}
			keys := make([]key, 0, len(series))
			for k := range series {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				a, b := keys[i], keys[j]
				if a.name != b.name {
					return a.name < b.name
				}
				if a.labels != b.labels {
					return a.labels < b.labels
				}
				return a.kind < b.kind
			})
			for _, k := range keys {
				if err := emit(series[k]); err != nil {
					return err
				}
			}
			return nil
		},
	}
}
