package main

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions; the smoke test fails on any drift.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: relative worsening that counts as a regression
	probe  bool    // per-layer only: a workload-independent probe, measured once per invocation
}

// endToEnd are the six numbers a user of a served volume sees, the same
// on every workload. Bounds come from benchmarks/CALIBRATION.md: the
// calibration sandbox's own speed drifts by about a tenth over minutes,
// so every wall-clock metric carries the widest bound allowed. The
// allocation count repeats within a percent or two, except on meta_query,
// where a query's cost grows with the garbage the faster runs leave.
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "main_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "main_p95_us", unit: "us", better: "lower", bound: 0.25},
	{name: "side_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "alloc_kb_per_op", unit: "KB", better: "lower", bound: 0.10},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer are the traced run's numbers, one group per module of this
// repository. *_per_op, *_ratio and *_us come from the traced passes of
// the workload; *_ns (and heap.fetch_alloc_bytes) are fixed-count probes
// of the layer's public functions over a memory device, which do not
// depend on the workload.
var perLayer = []metricDef{
	{name: "wire.op_us", unit: "us", better: "lower"},
	{name: "wire.self_us_per_op", unit: "us", better: "lower"},
	{name: "wire.calls_per_op", unit: "count", better: "lower"},
	{name: "wire.bytes_per_op", unit: "B", better: "lower"},
	{name: "wire.roundtrip_ns", unit: "ns", better: "lower", probe: true},

	{name: "core.op_us", unit: "us", better: "lower"},
	{name: "core.self_us_per_op", unit: "us", better: "lower"},
	{name: "core.alloc_kb_per_op", unit: "KB", better: "lower"},
	{name: "core.stat_ns", unit: "ns", better: "lower", probe: true},
	{name: "core.read_chunk_ns", unit: "ns", better: "lower", probe: true},
	{name: "core.write_chunk_ns", unit: "ns", better: "lower", probe: true},
	{name: "core.create_unlink_ns", unit: "ns", better: "lower", probe: true},

	{name: "query.pages_touched_per_row", unit: "count", better: "lower"},
	{name: "query.parse_ns", unit: "ns", better: "lower", probe: true},
	{name: "query.exec_ns_per_file", unit: "ns", better: "lower", probe: true},

	{name: "txn.commits_per_op", unit: "count", better: "lower"},
	{name: "txn.forces_per_commit", unit: "count", better: "lower"},
	{name: "txn.commit_force_p50_us", unit: "us", better: "lower"},
	{name: "txn.lock_waits_per_op", unit: "count", better: "lower"},
	{name: "txn.status_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "txn.group_commit.mean_batch", unit: "count", better: "higher"},
	{name: "txn.begin_commit_ro_ns", unit: "ns", better: "lower", probe: true},
	{name: "txn.begin_commit_rw_ns", unit: "ns", better: "lower", probe: true},
	{name: "txn.lock_cycle_ns", unit: "ns", better: "lower", probe: true},
	{name: "txn.snapshot_ns", unit: "ns", better: "lower", probe: true},

	{name: "heap.insert_ns", unit: "ns", better: "lower", probe: true},
	{name: "heap.fetch_ns", unit: "ns", better: "lower", probe: true},
	{name: "heap.fetch_alloc_bytes", unit: "B", better: "lower", probe: true},
	{name: "heap.scan_ns_per_tuple", unit: "ns", better: "lower", probe: true},

	{name: "btree.insert_ns", unit: "ns", better: "lower", probe: true},
	{name: "btree.lookup_ns", unit: "ns", better: "lower", probe: true},
	{name: "btree.ascend_ns_per_entry", unit: "ns", better: "lower", probe: true},

	{name: "buffer.gets_per_op", unit: "count", better: "lower"},
	{name: "buffer.hit_ratio", unit: "ratio", better: "higher"},
	{name: "buffer.misses_per_op", unit: "count", better: "lower"},
	{name: "buffer.evictions_per_op", unit: "count", better: "lower"},
	{name: "buffer.writebacks_per_op", unit: "count", better: "lower"},
	{name: "buffer.bg_writeback_share", unit: "ratio", better: "higher"},
	{name: "buffer.load_waits_per_op", unit: "count", better: "lower"},
	{name: "buffer.get_hit_ns", unit: "ns", better: "lower", probe: true},
	{name: "buffer.get_miss_ns", unit: "ns", better: "lower", probe: true},
	{name: "buffer.new_page_ns", unit: "ns", better: "lower", probe: true},

	{name: "page.insert_ns", unit: "ns", better: "lower", probe: true},
	{name: "page.item_ns", unit: "ns", better: "lower", probe: true},
	{name: "rowenc.encode_chunk_ns", unit: "ns", better: "lower", probe: true},
	{name: "rowenc.decode_chunk_ns", unit: "ns", better: "lower", probe: true},

	{name: "device.reads_per_op", unit: "count", better: "lower"},
	{name: "device.writes_per_op", unit: "count", better: "lower"},
	{name: "device.syncs_per_op", unit: "count", better: "lower"},
	{name: "device.extends_per_op", unit: "count", better: "lower"},
	{name: "device.read_us", unit: "us", better: "lower"},
	{name: "device.write_us", unit: "us", better: "lower"},
	{name: "device.sync_us", unit: "us", better: "lower"},
	{name: "device.busy_us_per_op", unit: "us", better: "lower"},
	{name: "device.syncs_per_commit", unit: "count", better: "lower"},
	{name: "device.bytes_written_per_user_byte", unit: "ratio", better: "lower"},
	{name: "device.file_bytes_per_user_byte", unit: "ratio", better: "lower"},

	{name: "obs.active_ns", unit: "ns", better: "lower", probe: true},
	{name: "obs.wait_sampling_overhead_ratio", unit: "ratio", better: "lower"},

	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "e2e.main_p99_us", unit: "us", better: "lower"},
	{name: "e2e.round_cv", unit: "ratio", better: "lower"},
}

// exactCounts are the per-layer metrics that are pure counts of a
// single-client pass with no timer-driven background work: they repeat
// exactly for one seed, so a later change may cite them as counts.
var exactCounts = []string{
	"wire.calls_per_op", "wire.bytes_per_op", "txn.commits_per_op", "txn.forces_per_commit",
	"buffer.gets_per_op", "buffer.hit_ratio", "buffer.misses_per_op", "buffer.evictions_per_op",
	"buffer.writebacks_per_op", "device.reads_per_op", "device.writes_per_op", "device.syncs_per_op",
	"device.extends_per_op", "device.syncs_per_commit", "device.bytes_written_per_user_byte",
	"query.pages_touched_per_row",
}

// layerDefs is the part of perLayer that is (probe true) or is not a
// probe.
func layerDefs(probe bool) []metricDef {
	var defs []metricDef
	for _, d := range perLayer {
		if d.probe == probe {
			defs = append(defs, d)
		}
	}
	return defs
}
