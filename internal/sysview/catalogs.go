package sysview

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/txn"
	"repro/internal/value"
)

// wireOpPrefix/Suffix bracket the per-opcode histograms the wire
// server registers ("wire.op.<name>_ns"); inv_stat_ops is a view over
// exactly that family.
const (
	wireOpPrefix = "wire.op."
	wireOpSuffix = "_ns"
)

// NewStatOps returns inv_stat_ops: one row per wire opcode with its
// request count and latency quantiles, extracted from the metrics
// registry's per-op histograms. Counts are cumulative since server
// start; quantiles are interpolated from the 28 power-of-two buckets.
func NewStatOps(reg *obs.Registry) *Rel {
	return &Rel{
		Name: "inv_stat_ops",
		Doc:  "per-opcode request counts and latency quantiles (cumulative)",
		Columns: []Column{
			{"op", value.KindString, "wire opcode name"},
			{"count", value.KindInt, "requests served since start"},
			{"mean_ns", value.KindInt, "mean latency, nanoseconds"},
			{"p50_ns", value.KindInt, "median latency, nanoseconds"},
			{"p95_ns", value.KindInt, "95th-percentile latency, nanoseconds"},
			{"p99_ns", value.KindInt, "99th-percentile latency, nanoseconds"},
		},
		Scan: func(_ *txn.Snapshot, emit func([]value.V) error) error {
			for _, h := range reg.Snapshot().Hists { // already name-sorted
				if !strings.HasPrefix(h.Name, wireOpPrefix) || !strings.HasSuffix(h.Name, wireOpSuffix) {
					continue
				}
				op := strings.TrimSuffix(strings.TrimPrefix(h.Name, wireOpPrefix), wireOpSuffix)
				if err := emit([]value.V{
					value.Str(op),
					value.Int(h.Count),
					value.Int(h.MeanNs()),
					value.Int(h.Quantile(0.50)),
					value.Int(h.Quantile(0.95)),
					value.Int(h.Quantile(0.99)),
				}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// NewStatBuffer returns inv_stat_buffer: one row per buffer-pool lock
// shard plus a merged "all" row, from the pool's always-on per-shard
// counters.
func NewStatBuffer(pool *buffer.Pool) *Rel {
	return &Rel{
		Name: "inv_stat_buffer",
		Doc:  "buffer-pool cache statistics per lock shard, plus a merged 'all' row",
		Columns: []Column{
			{"shard", value.KindString, "shard index 00..15, or 'all' for the merged row"},
			{"frames", value.KindInt, "frames currently cached in this shard"},
			{"hits", value.KindInt, "Gets served from cache"},
			{"misses", value.KindInt, "Gets that issued a backend read"},
			{"hit_ratio", value.KindFloat, "hits / (hits + misses), 0 when idle"},
			{"evictions", value.KindInt, "frames dropped to make room"},
			{"writebacks", value.KindInt, "dirty pages written to the backend"},
		},
		Scan: func(_ *txn.Snapshot, emit func([]value.V) error) error {
			var total buffer.ShardStat
			for _, s := range pool.ShardStats() {
				total.Frames += s.Frames
				total.Hits += s.Hits
				total.Misses += s.Misses
				total.Evictions += s.Evictions
				total.Writebacks += s.Writebacks
				if err := emit(bufferRow(fmt.Sprintf("%02d", s.Shard), s)); err != nil {
					return err
				}
			}
			return emit(bufferRow("all", total))
		},
	}
}

func bufferRow(label string, s buffer.ShardStat) []value.V {
	ratio := 0.0
	if s.Hits+s.Misses > 0 {
		ratio = float64(s.Hits) / float64(s.Hits+s.Misses)
	}
	return []value.V{
		value.Str(label),
		value.Int(int64(s.Frames)),
		value.Int(s.Hits),
		value.Int(s.Misses),
		value.Float(ratio),
		value.Int(s.Evictions),
		value.Int(s.Writebacks),
	}
}

// NewLocks returns inv_locks: the lock table, one row per granted
// (tag, holder) pair and one per queued waiter. The dump is a single
// short critical section on the lock manager, so each query sees a
// consistent instant of the table.
func NewLocks(lm *txn.LockManager) *Rel {
	return &Rel{
		Name: "inv_locks",
		Doc:  "the 2PL lock table: granted locks and queued waiters",
		Columns: []Column{
			{"txn", value.KindInt, "transaction holding or requesting the lock"},
			{"space", value.KindString, "lock namespace: relation, name, or meta"},
			{"rel", value.KindInt, "relation OID the tag names"},
			{"key", value.KindInt, "key within the space (e.g. name hash)"},
			{"mode", value.KindString, "shared or exclusive"},
			{"granted", value.KindBool, "true for holders, false for queued waiters"},
			{"waiters", value.KindInt, "queue length behind this tag"},
		},
		Scan: func(_ *txn.Snapshot, emit func([]value.V) error) error {
			dump := lm.DumpLocks()
			sort.Slice(dump, func(i, j int) bool {
				a, b := dump[i], dump[j]
				if a.Tag != b.Tag {
					if a.Tag.Space != b.Tag.Space {
						return a.Tag.Space < b.Tag.Space
					}
					if a.Tag.Rel != b.Tag.Rel {
						return a.Tag.Rel < b.Tag.Rel
					}
					return a.Tag.Key < b.Tag.Key
				}
				if a.Granted != b.Granted {
					return a.Granted // holders before waiters
				}
				return a.Txn < b.Txn
			})
			for _, d := range dump {
				if err := emit([]value.V{
					value.Int(int64(d.Txn)),
					value.Str(d.Tag.Space.String()),
					value.Int(int64(d.Tag.Rel)),
					value.Int(int64(d.Tag.Key)),
					value.Str(d.Mode.String()),
					value.Bool(d.Granted),
					value.Int(int64(d.Waiters)),
				}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// NewTransactions returns inv_transactions: the live transaction set
// with wall-clock ages. Ended transactions disappear immediately; the
// status log's history is not replayed here.
func NewTransactions(mgr *txn.Manager) *Rel {
	return &Rel{
		Name: "inv_transactions",
		Doc:  "live transactions: xid, state, wall-clock age, annotated relation",
		Columns: []Column{
			{"xid", value.KindInt, "transaction id"},
			{"state", value.KindString, "always 'in-progress' (ended txns leave the set)"},
			{"age_ms", value.KindInt, "wall-clock milliseconds since Begin"},
			{"relation", value.KindString, "first data relation touched, empty if none yet"},
		},
		Scan: func(_ *txn.Snapshot, emit func([]value.V) error) error {
			act := mgr.ActiveTxns()
			sort.Slice(act, func(i, j int) bool { return act[i].XID < act[j].XID })
			now := time.Now().UnixNano()
			for _, a := range act {
				age := (now - a.StartUnixNs) / int64(time.Millisecond)
				if age < 0 {
					age = 0
				}
				if err := emit([]value.V{
					value.Int(int64(a.XID)),
					value.Str("in-progress"),
					value.Int(age),
					value.Str(a.Note),
				}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// NewTraces returns inv_traces: the slowest-request ring with the
// per-layer cost breakdown, slowest first.
func NewTraces(ring *obs.TraceRing) *Rel {
	return &Rel{
		Name: "inv_traces",
		Doc:  "slowest recent requests with per-layer cost breakdown",
		Columns: []Column{
			{"op", value.KindString, "wire opcode"},
			{"txn", value.KindInt, "transaction id serving the request (0 if none)"},
			{"relation", value.KindString, "relation the request touched"},
			{"outcome", value.KindString, "ok, error code, panic, or reaped"},
			{"wall_ns", value.KindInt, "end-to-end wall time"},
			{"lock_wait_ns", value.KindInt, "time parked in the lock manager"},
			{"buf_load_ns", value.KindInt, "backend read time (incl. load waits)"},
			{"buf_write_ns", value.KindInt, "backend write time (writebacks, flushes)"},
			{"commit_force_ns", value.KindInt, "status-log force time"},
			{"buf_hits", value.KindInt, "buffer-cache hits"},
			{"buf_misses", value.KindInt, "buffer-cache misses"},
			{"bytes_in", value.KindInt, "request payload bytes"},
			{"bytes_out", value.KindInt, "reply payload bytes"},
			{"start_unix_ns", value.KindInt, "wall-clock request start"},
			{"trace_id", value.KindString, "trace the request belongs to"},
			{"attempt", value.KindInt, "client retry attempt (0 = first try)"},
		},
		Scan: func(_ *txn.Snapshot, emit func([]value.V) error) error {
			for _, d := range ring.Slowest() {
				if err := emit([]value.V{
					value.Str(d.Op),
					value.Int(int64(d.Txn)),
					value.Str(d.Rel),
					value.Str(d.Outcome),
					value.Int(d.WallNs),
					value.Int(d.LockWaitNs),
					value.Int(d.BufLoadNs),
					value.Int(d.BufWriteNs),
					value.Int(d.CommitNs),
					value.Int(d.BufHits),
					value.Int(d.BufMisses),
					value.Int(d.BytesIn),
					value.Int(d.BytesOut),
					value.Int(d.StartUnixNs),
					value.Str(d.TraceID),
					value.Int(int64(d.Attempt)),
				}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// NewWaitEvents returns inv_wait_events: the counted wait-event profile.
// Each row is one (class, event, op, relation) combination with the
// waits that ended there, their total nanoseconds, and how many are
// blocked there now.
func NewWaitEvents(profile func() obs.WaitProfile) *Rel {
	return &Rel{
		Name: "inv_wait_events",
		Doc:  "counted wait-event profile: where goroutines block, by event, op, and relation",
		Columns: []Column{
			{"class", value.KindString, "event class (Lock, LWLock, BufferIO, IO, IPC, Timeout, Activity)"},
			{"event", value.KindString, "wait event name"},
			{"op", value.KindString, "wire op or background loop that was waiting"},
			{"relation", value.KindString, "relation the wait is attributed to"},
			{"waits", value.KindInt, "waits that ended here"},
			{"wait_ns", value.KindInt, "total nanoseconds of those waits"},
			{"waiting", value.KindInt, "goroutines blocked here now"},
		},
		Scan: func(_ *txn.Snapshot, emit func([]value.V) error) error {
			for _, r := range profile().Rows {
				if err := emit([]value.V{
					value.Str(r.Class),
					value.Str(r.Event),
					value.Str(r.Op),
					value.Str(r.Rel),
					value.Int(int64(r.Waits)),
					value.Int(r.WaitNs),
					value.Int(int64(r.Waiting)),
				}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// NewStatTxn returns inv_stat_txn: the commit pipeline's operational
// counters as stat/value rows — group-commit batching effectiveness,
// commit-force latency, log checkpoint state, and background-writer
// progress. Values with no natural integer form (means, ratios) are
// carried in the float column; everything else is exact.
func NewStatTxn(reg *obs.Registry, mgr *txn.Manager, pool *buffer.Pool) *Rel {
	return &Rel{
		Name: "inv_stat_txn",
		Doc:  "commit pipeline statistics: group commit, log forces, checkpoints, background writer",
		Columns: []Column{
			{"stat", value.KindString, "statistic name"},
			{"value", value.KindFloat, "current value (cumulative counters, or point-in-time gauges)"},
			{"doc", value.KindString, "one-line description"},
		},
		Scan: func(_ *txn.Snapshot, emit func([]value.V) error) error {
			row := func(name string, v float64, doc string) []value.V {
				return []value.V{value.Str(name), value.Float(v), value.Str(doc)}
			}
			bs := reg.Histogram("txn.group_commit.batch_size").Snapshot("")
			lw := reg.Histogram("txn.group_commit.leader_wait_ns").Snapshot("")
			cf := reg.Histogram("txn.commit_force_ns").Snapshot("")
			meanBatch := 0.0
			if bs.Count > 0 {
				meanBatch = float64(bs.SumNs) / float64(bs.Count)
			}
			log := mgr.Log()
			loaded, total := log.LoadedPages()
			ps := pool.Stats()
			for _, r := range [][]value.V{
				row("group_commit.batches", float64(bs.Count), "commit batches forced (one leader each)"),
				row("group_commit.commits", float64(bs.SumNs), "transactions committed through the group pipeline"),
				row("group_commit.batch_size_mean", meanBatch, "mean committers per batch (1.0 = no batching)"),
				row("group_commit.forces_saved", float64(reg.Counter("txn.group_commit.forces_saved").Load()), "log forces avoided by riding a leader's batch"),
				row("group_commit.leader_wait_p50_ns", float64(lw.Quantile(0.50)), "median follower wait for its leader's force"),
				row("group_commit.leader_wait_p95_ns", float64(lw.Quantile(0.95)), "95th-percentile follower wait"),
				row("commit_force_count", float64(cf.Count), "commit forces timed (includes solo commits)"),
				row("commit_force_p50_ns", float64(cf.Quantile(0.50)), "median commit force latency"),
				row("commit_force_p95_ns", float64(cf.Quantile(0.95)), "95th-percentile commit force latency"),
				row("log.forces", float64(log.Forces()), "log force-and-sync rounds completed"),
				row("log.checkpoint_xid", float64(log.CheckpointXID()), "horizon persisted by the last checkpoint"),
				row("log.lazy_loads", float64(log.LazyLoads()), "pre-checkpoint log pages faulted in on demand"),
				row("log.pages_loaded", float64(loaded), "log pages resident in memory"),
				row("log.pages_total", float64(total), "log pages on disk"),
				row("buffer.dirty_pages", float64(ps.DirtyPages), "dirty pages awaiting writeback"),
				row("buffer.bg_writebacks", float64(ps.BGWritebacks), "pages written by the background writer"),
				row("buffer.bg_rounds", float64(ps.BGRounds), "background flush rounds that made progress"),
				row("buffer.bg_errors", float64(ps.BGErrors), "background writeback errors (pages left dirty)"),
			} {
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// NewColumnsCatalog returns inv_columns, the meta-catalog: one row per
// column of every registered relation, so clients (inv query \dv) can
// discover what a from clause can name over the wire with a plain
// query. It reads the registry it is registered in, so relations added
// later (inv_traces, the history heaps) appear automatically.
func NewColumnsCatalog(reg *Registry) *Rel {
	return &Rel{
		Name: "inv_columns",
		Doc:  "columns of every virtual relation (the catalog of catalogs)",
		Columns: []Column{
			{"relation", value.KindString, "virtual relation name"},
			{"column", value.KindString, "column name"},
			{"type", value.KindString, "column type"},
			{"doc", value.KindString, "one-line column description"},
		},
		Scan: func(_ *txn.Snapshot, emit func([]value.V) error) error {
			for _, v := range reg.All() {
				for _, c := range v.Columns {
					if err := emit([]value.V{
						value.Str(v.Name),
						value.Str(c.Name),
						value.Str(KindName(c.Kind)),
						value.Str(c.Doc),
					}); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}
}
