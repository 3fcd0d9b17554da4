package buffer

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/obs"
)

// TestShardStatsSumToGlobals drives a workload that hits, misses, and
// evicts, then checks the per-shard counters sum to the pool-wide ones
// and the per-shard frame counts sum to nframes.
func TestShardStatsSumToGlobals(t *testing.T) {
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	const rel device.OID = 100
	if err := sw.Place(rel, ""); err != nil {
		t.Fatal(err)
	}
	p := NewPool(sw, 8)
	// Create pages, then read them back twice through a pool smaller
	// than the set so both hits and capacity evictions occur.
	const pages = 24
	for i := 0; i < pages; i++ {
		f, _, err := p.NewPage(rel)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(f, true)
	}
	for pass := 0; pass < 2; pass++ {
		for i := uint32(0); i < pages; i++ {
			// Two back-to-back Gets: the second is a guaranteed hit even
			// though the working set thrashes the 8-frame pool.
			for j := 0; j < 2; j++ {
				f, err := p.Get(rel, i)
				if err != nil {
					t.Fatal(err)
				}
				p.Release(f, false)
			}
		}
	}

	st := p.Stats()
	var hits, misses, evictions, writebacks int64
	var frames int
	ss := p.ShardStats()
	if len(ss) != numShards {
		t.Fatalf("ShardStats len = %d, want %d", len(ss), numShards)
	}
	for i, s := range ss {
		if s.Shard != i {
			t.Fatalf("shard index %d reported as %d", i, s.Shard)
		}
		hits += s.Hits
		misses += s.Misses
		evictions += s.Evictions
		writebacks += s.Writebacks
		frames += s.Frames
	}
	if hits != st.Hits || misses != st.Misses || evictions != st.Evictions || writebacks != st.Writebacks {
		t.Fatalf("shard sums (h=%d m=%d e=%d w=%d) != pool stats %+v",
			hits, misses, evictions, writebacks, st)
	}
	if got := p.nframes.Load(); int64(frames) != got {
		t.Fatalf("shard frame sum %d != nframes %d", frames, got)
	}
	if st.Evictions == 0 || st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("workload did not exercise all counters: %+v", st)
	}
}

// TestOneCounterPerEvent: every hit, miss, eviction and writeback adds
// one to one counter — its shard's — and the registry publishes those
// same counters, so Stats, ShardStats and a scrape cannot disagree.
func TestOneCounterPerEvent(t *testing.T) {
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	const rel device.OID = 100
	if err := sw.Place(rel, ""); err != nil {
		t.Fatal(err)
	}
	p := NewPool(sw, 2)
	reg := obs.NewRegistry()
	p.SetObs(reg)
	for i := range p.shards {
		s := &p.shards[i]
		for name, c := range map[string]*obs.Counter{
			"hits": &s.hits, "misses": &s.misses, "evictions": &s.evictions, "writebacks": &s.writebacks,
		} {
			if reg.Counter(fmt.Sprintf("buffer.shard%02d.%s", i, name)) != c {
				t.Fatalf("registry does not publish shard %d's %s counter", i, name)
			}
		}
	}

	// Three dirty pages through two frames: page 0 is written back and
	// evicted. Reading it back misses and pushes page 1 out the same
	// way; reading it again hits.
	for i := 0; i < 3; i++ {
		f, _, err := p.NewPage(rel)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(f, true)
	}
	for i := 0; i < 2; i++ {
		f, err := p.Get(rel, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(f, false)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 2 || st.Writebacks != 2 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 2 evictions, 2 writebacks", st)
	}
	sums := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		sums[c.Name[len("buffer.shardNN."):]] += c.Value
	}
	if sums["hits"] != st.Hits || sums["misses"] != st.Misses ||
		sums["evictions"] != st.Evictions || sums["writebacks"] != st.Writebacks {
		t.Fatalf("registry sums %v disagree with stats %+v", sums, st)
	}
}
