package obs

import (
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	// Exactly-on-boundary values land in the bucket whose bound they
	// equal (bounds are inclusive).
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {1023, 0}, {1024, 0},
		{1025, 1}, {2048, 1}, {2049, 2},
		{Bound(10), 10}, {Bound(10) + 1, 11},
		{Bound(NumBuckets - 2), NumBuckets - 2},
		{Bound(NumBuckets-2) + 1, NumBuckets - 1},
		{math.MaxInt64, NumBuckets - 1},
		{-5, 0},
	}
	for _, c := range cases {
		if got := bucketFor(c.ns); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestQuantileAtBucketBoundaries(t *testing.T) {
	var h Histogram
	// 100 samples, all exactly at Bound(5): the whole bucket [Bound(4),
	// Bound(5)] holds every sample, so interpolation stays within it.
	for i := 0; i < 100; i++ {
		h.Observe(Bound(5))
	}
	s := h.Snapshot("t")
	for _, q := range []float64{0.5, 0.95, 0.99, 1.0} {
		got := s.Quantile(q)
		if got < Bound(4) || got > Bound(5) {
			t.Errorf("Quantile(%v) = %d, want within [%d,%d]", q, got, Bound(4), Bound(5))
		}
	}
	if s.Quantile(1.0) != Bound(5) {
		t.Errorf("Quantile(1.0) = %d, want upper bound %d", s.Quantile(1.0), Bound(5))
	}

	// Empty histogram.
	var empty HistogramSnapshot
	if empty.Quantile(0.99) != 0 {
		t.Errorf("empty Quantile = %d, want 0", empty.Quantile(0.99))
	}

	// Bimodal: half in bucket 0, half in bucket 8 — p50 must fall in the
	// first mode, p99 in the second.
	var bi Histogram
	for i := 0; i < 50; i++ {
		bi.Observe(100)
		bi.Observe(Bound(8))
	}
	bs := bi.Snapshot("bi")
	if p50 := bs.Quantile(0.50); p50 > Bound(0) {
		t.Errorf("bimodal p50 = %d, want <= %d", p50, Bound(0))
	}
	if p99 := bs.Quantile(0.99); p99 <= Bound(7) {
		t.Errorf("bimodal p99 = %d, want > %d", p99, Bound(7))
	}

	// Last (open-ended) bucket reports its lower bound.
	var top Histogram
	top.Observe(math.MaxInt64 / 2)
	if got := top.Snapshot("top").Quantile(0.99); got != Bound(NumBuckets-2) {
		t.Errorf("open-bucket quantile = %d, want %d", got, Bound(NumBuckets-2))
	}
}

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.zero") // stays zero
	reg.Counter("wire.requests").Add(12345)
	reg.Counter("saturated").Add(math.MaxInt64)
	reg.GaugeFunc("buffer.capacity", func() int64 { return 64 })
	reg.GaugeFunc("neg", func() int64 { return -7 })
	h := reg.Histogram("wire.op.read_ns")
	h.Observe(0)
	h.Observe(1024)
	h.Observe(math.MaxInt64)
	reg.Histogram("empty_ns")

	want := reg.Snapshot()
	got, err := DecodeSnapshot(EncodeSnapshot(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}

	// Zero-value snapshot survives too.
	got, err = DecodeSnapshot(EncodeSnapshot(Snapshot{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Counters)+len(got.Gauges)+len(got.Hists) != 0 {
		t.Fatalf("empty snapshot round trip = %+v", got)
	}

	// Truncated payloads error instead of misparsing.
	enc := EncodeSnapshot(want)
	if _, err := DecodeSnapshot(enc[:len(enc)/2]); err == nil {
		t.Fatal("truncated snapshot decoded without error")
	}
	if _, err := DecodeSnapshot([]byte{9, 9, 9, 9}); err == nil {
		t.Fatal("bad version decoded without error")
	}
}

func TestSnapshotStableOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z")
	reg.Counter("a")
	reg.Counter("m")
	s := reg.Snapshot()
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name >= s.Counters[i].Name {
			t.Fatalf("counters not sorted: %v", s.Counters)
		}
	}
}

func TestMergeShards(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("buffer.shard00.hits").Add(3)
	reg.Counter("buffer.shard15.hits").Add(4)
	reg.Counter("wire.requests").Add(9)
	reg.Histogram("buffer.shard00.hit_ns").Observe(100)
	reg.Histogram("buffer.shard07.hit_ns").Observe(200)
	m := MergeShards(reg.Snapshot())
	var hits int64 = -1
	for _, c := range m.Counters {
		if c.Name == "buffer.hits" {
			hits = c.Value
		}
		if strings.Contains(c.Name, "shard") {
			t.Fatalf("unmerged shard counter %q", c.Name)
		}
	}
	if hits != 7 {
		t.Fatalf("merged buffer.hits = %d, want 7", hits)
	}
	if len(m.Hists) != 1 || m.Hists[0].Name != "buffer.hit_ns" || m.Hists[0].Count != 2 {
		t.Fatalf("merged hists = %+v", m.Hists)
	}
}

func TestActiveSpanPerGoroutine(t *testing.T) {
	if Active() != nil {
		t.Fatal("Active() non-nil with no span activated")
	}
	s := NewSpan("read")
	Activate(s)
	defer Deactivate()
	if Active() != s {
		t.Fatal("Active() did not return the activated span")
	}
	// Another goroutine must not see this goroutine's span.
	done := make(chan *Span)
	go func() { done <- Active() }()
	if other := <-done; other != nil {
		t.Fatalf("sibling goroutine saw span %+v", other)
	}
}

func TestSpanChargesConcurrent(t *testing.T) {
	s := NewSpan("write")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.AddBufLoad(10)
				s.BufMiss()
			}
		}()
	}
	wg.Wait()
	if got := s.BufLoadNs.Load(); got != 8000 {
		t.Fatalf("BufLoadNs = %d, want 8000", got)
	}
	if got := s.BufMisses.Load(); got != 800 {
		t.Fatalf("BufMisses = %d, want 800", got)
	}
}

func TestTraceRingKeepsSlowest(t *testing.T) {
	r := NewTraceRing(3)
	for _, w := range []int64{5, 1, 9, 3, 7, 2} {
		r.Record(SpanData{Op: "x", WallNs: w})
	}
	got := r.Slowest()
	if len(got) != 3 || got[0].WallNs != 9 || got[1].WallNs != 7 || got[2].WallNs != 5 {
		t.Fatalf("Slowest() = %+v", got)
	}
}

func TestHandlerMetricsAndTraces(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("wire.requests").Add(2)
	reg.Histogram("wire.op.read_ns").Observe(5000)
	ring := NewTraceRing(4)
	ring.Record(SpanData{Op: "read", WallNs: 123, Outcome: "ok"})
	scrapes := int64(0)
	reg.GaugeFunc("scrapes", func() int64 { scrapes++; return scrapes })
	h := Handler(reg, ring)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"inv_wire_requests 2",
		"# TYPE inv_scrapes gauge\ninv_scrapes 1\n", // read at scrape time
		"# TYPE inv_wire_op_read_seconds histogram",
		"inv_wire_op_read_seconds_count 1",
		`le="+Inf"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/traces/recent", nil))
	if !strings.Contains(rec.Body.String(), `"op": "read"`) {
		t.Errorf("/traces/recent = %s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Errorf("/debug/pprof/cmdline status %d", rec.Code)
	}
}

func TestFormatTextUnitsAndOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.second").Add(2)
	reg.Counter("a.first").Add(1)
	reg.GaugeFunc("g.cap", func() int64 { return 64 })
	reg.Histogram("lat_ns").Observe(int64(3 * time.Millisecond))
	out := FormatText(reg.Snapshot())
	ia, ib := strings.Index(out, "a.first"), strings.Index(out, "b.second")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("counters out of order:\n%s", out)
	}
	if !strings.Contains(out, "p99=") || !strings.Contains(out, "ms") {
		t.Fatalf("histogram line missing quantiles/units:\n%s", out)
	}
}

func TestFormatNs(t *testing.T) {
	cases := map[int64]string{
		999:           "999ns",
		1500:          "1.5µs",
		2_500_000:     "2.5ms",
		1_500_000_000: "1.50s",
	}
	for ns, want := range cases {
		if got := FormatNs(ns); got != want {
			t.Errorf("FormatNs(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Add(1)
	var h *Histogram
	h.Observe(1)
	var r *Registry
	if r.Counter("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	r.PublishCounter("x", c)
	r.GaugeFunc("x", func() int64 { return 1 })
	_ = r.Snapshot()
	var sp *Span
	sp.AddLockWait(1)
	sp.BufHit()
	sp.SetTxn(1)
	sp.SetRel("x")
	Activate(nil)
	var ring *TraceRing
	ring.Record(SpanData{})
	if ring.Slowest() != nil {
		t.Fatal("nil ring Slowest must be nil")
	}
}

// TestPublishedCounterAndGaugeFunc: a published counter is the owner's
// own counter, read in place, and a gauge function runs with no
// registry lock held, so it may itself use the registry.
func TestPublishedCounterAndGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	var owned Counter
	reg.PublishCounter("layer.events", &owned)
	if reg.Counter("layer.events") != &owned {
		t.Fatal("Counter(name) must return the published pointer")
	}
	owned.Add(3)
	reg.GaugeFunc("layer.reentrant", func() int64 { return reg.Counter("layer.events").Load() * 2 })
	done := make(chan Snapshot)
	go func() { done <- reg.Snapshot() }()
	select {
	case s := <-done:
		if s.Counters[0].Value != 3 || s.Gauges[0].Value != 6 {
			t.Fatalf("snapshot = %+v", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Snapshot deadlocked: gauge function ran under the registry lock")
	}
}
