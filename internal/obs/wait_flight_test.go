package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestActivateNilRemovesSlot is the span-leak regression: cleanup paths
// (including panic recovery) call Activate(nil) unconditionally, and it
// must actually remove the goroutine's slot. Before the fix it stored
// nothing but also deleted nothing, so a panicking handler leaked its
// slot and pinned spanCount above zero for the life of the process.
func TestActivateNilRemovesSlot(t *testing.T) {
	base := ActiveSpanCount()
	sp := NewSpan("leaktest")
	Activate(sp)
	if got := ActiveSpanCount(); got != base+1 {
		t.Fatalf("after Activate: count = %d, want %d", got, base+1)
	}
	Activate(nil)
	if got := Active(); got != nil {
		t.Fatalf("after Activate(nil): Active() = %v, want nil", got)
	}
	if got := ActiveSpanCount(); got != base {
		t.Fatalf("after Activate(nil): count = %d, want %d (slot leaked)", got, base)
	}
	// Idempotent: a second cleanup (deferred Activate(nil) after an
	// explicit Deactivate) must not drive the count negative.
	Activate(nil)
	if got := ActiveSpanCount(); got != base {
		t.Fatalf("after double Activate(nil): count = %d, want %d", got, base)
	}
}

func TestWaitEventNamesAndClasses(t *testing.T) {
	for e := WaitNone; e < numWaitEvents; e++ {
		if e.String() == "" || strings.HasPrefix(e.String(), "wait") {
			t.Errorf("event %d has no name", e)
		}
		if e.Class() == "" {
			t.Errorf("event %s has no class", e)
		}
	}
	if WaitLockAcquire.Class() != ClassLock {
		t.Errorf("lock_acquire class = %s", WaitLockAcquire.Class())
	}
	if WaitFrameLatch.Class() != ClassLWLock {
		t.Errorf("frame_latch class = %s", WaitFrameLatch.Class())
	}
}

// TestWaitProfileEncodeDecode round-trips a profile through the wire
// encoding, including counters at their type limits.
func TestWaitProfileEncodeDecode(t *testing.T) {
	p := WaitProfile{
		Rows: []WaitProfileRow{
			{Class: "IO", Event: "log_force", Op: "commit", Waits: 42, WaitNs: 123456789, Waiting: 1},
			{Class: "Lock", Event: "lock_acquire", Op: "open", Rel: "inv99",
				Waits: math.MaxUint64, WaitNs: math.MaxInt64, Waiting: math.MaxUint32},
			{Class: "Activity", Event: "bgwriter_idle", Op: "bgwriter", Waits: 1, WaitNs: 7},
		},
	}
	got, err := DecodeWaitProfile(EncodeWaitProfile(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(p.Rows) {
		t.Fatalf("rows = %d, want %d", len(got.Rows), len(p.Rows))
	}
	for i, r := range got.Rows {
		if r != p.Rows[i] {
			t.Errorf("row %d = %+v, want %+v", i, r, p.Rows[i])
		}
	}

	// Empty profile round-trips too.
	empty, err := DecodeWaitProfile(EncodeWaitProfile(WaitProfile{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Rows) != 0 {
		t.Fatalf("empty profile decoded %d rows", len(empty.Rows))
	}

	// Other versions are rejected loudly, not misparsed: a version-1
	// (sampled) payload names its version in the error.
	b := EncodeWaitProfile(p)
	b[0] = 1
	if _, err := DecodeWaitProfile(b); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version 1 payload: err = %v", err)
	}
	// Truncation surfaces as an error, not a short profile.
	if _, err := DecodeWaitProfile(EncodeWaitProfile(p)[:10]); err == nil {
		t.Fatal("truncated profile accepted")
	}
}

// waitRow finds the (event, op, rel) cell in the live profile, or the
// zero row if no wait has opened there yet. Cells
// are process-wide and outlive a test, so tests compare against the
// row as it stood before they waited.
func waitRow(t *testing.T, event, op, rel string) WaitProfileRow {
	t.Helper()
	for _, r := range SnapshotWaits().Rows {
		if r.Event == event && r.Op == op && r.Rel == rel {
			return r
		}
	}
	return WaitProfileRow{}
}

// TestBeginWaitEndCounts: a wait shows as waiting while open; End adds
// one wait and exactly the nanoseconds it returns to the cell and the
// event's published totals.
func TestBeginWaitEndCounts(t *testing.T) {
	reg := NewRegistry()
	PublishWaitCounters(reg)
	waits, ns := reg.Counter("wait.Lock.lock_acquire"), reg.Counter("wait.Lock.lock_acquire.ns")
	waits0, ns0 := waits.Load(), ns.Load()

	sp := NewSpan("counttest")
	sp.SetRel("inv7")
	before := waitRow(t, "lock_acquire", "counttest", "inv7")
	w := BeginWait(WaitLockAcquire, sp, "")
	r := waitRow(t, "lock_acquire", "counttest", "inv7")
	if r.Class != "Lock" || r.Waiting != 1 || r.Waits != before.Waits || r.WaitNs != before.WaitNs {
		w.End()
		t.Fatalf("during the wait: %+v (before %+v), want waiting 1 and nothing counted", r, before)
	}
	time.Sleep(time.Millisecond)
	d := w.End()
	if d < int64(time.Millisecond) {
		t.Fatalf("End = %dns, want >= 1ms", d)
	}
	r = waitRow(t, "lock_acquire", "counttest", "inv7")
	if r.Waiting != 0 || r.Waits != before.Waits+1 || r.WaitNs != before.WaitNs+d {
		t.Fatalf("after the wait: %+v (before %+v), want 1 more wait of %dns, none waiting", r, before, d)
	}

	// An explicit relation overrides the span's.
	before = waitRow(t, "lock_acquire", "counttest", "inv8")
	d2 := BeginWait(WaitLockAcquire, sp, "inv8").End()
	if r := waitRow(t, "lock_acquire", "counttest", "inv8"); r.Waits != before.Waits+1 || r.WaitNs != before.WaitNs+d2 {
		t.Fatalf("rel override: %+v (before %+v)", r, before)
	}
	if got := waits.Load() - waits0; got != 2 {
		t.Fatalf("wait.Lock.lock_acquire grew by %d, want 2", got)
	}
	if got := ns.Load() - ns0; got != d+d2 {
		t.Fatalf("wait.Lock.lock_acquire.ns grew by %d, want %d", got, d+d2)
	}

	// Background loops are attributed to the loop name.
	before = waitRow(t, "reaper_idle", "counttest-loop", "")
	BeginWaitLoop(WaitReaperIdle, "counttest-loop").End()
	if r := waitRow(t, "reaper_idle", "counttest-loop", ""); r.Class != "Activity" || r.Waits != before.Waits+1 {
		t.Fatalf("loop wait: %+v", r)
	}

	// The zero Wait is safe to End and reports nothing.
	var z Wait
	if d := z.End(); d != 0 {
		t.Fatalf("zero Wait End = %d", d)
	}
}

// TestWaitSamplerObservesWait samples the live profile from one
// goroutine while another is parked in BeginWait: the (event, op, rel)
// cell shows it as waiting with class attribution, and counts it once
// it ends.
func TestWaitSamplerObservesWait(t *testing.T) {
	before := waitRow(t, "lock_acquire", "open", "inv9")
	release := make(chan struct{})
	done := make(chan int64)
	go func() {
		sp := NewSpan("open")
		sp.SetRel("inv9")
		w := BeginWait(WaitLockAcquire, sp, "")
		<-release
		done <- w.End()
	}()

	deadline := time.After(2 * time.Second)
	for {
		if r := waitRow(t, "lock_acquire", "open", "inv9"); r.Class == "Lock" && r.Waiting == before.Waiting+1 {
			break
		}
		select {
		case <-deadline:
			close(release)
			<-done
			t.Fatalf("parked lock_acquire never seen waiting; row = %+v", waitRow(t, "lock_acquire", "open", "inv9"))
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	d := <-done
	if r := waitRow(t, "lock_acquire", "open", "inv9"); r.Waiting != before.Waiting || r.Waits != before.Waits+1 || r.WaitNs != before.WaitNs+d {
		t.Fatalf("after release: %+v (before %+v), want 1 more wait of %dns, none waiting", r, before, d)
	}
}

// TestConcurrentWaits: goroutines opening and ending waits on shared
// and fresh cells while others snapshot the profile lose no count.
func TestConcurrentWaits(t *testing.T) {
	const workers, rounds = 4, 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			SnapshotWaits()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sp := NewSpan("concurrent")
			for i := 0; i < rounds; i++ {
				BeginWait(WaitBufLoad, sp, "shared").End()
				BeginWait(WaitBufLoad, sp, fmt.Sprintf("own%d", g)).End()
			}
		}(g)
	}
	wg.Wait()
	<-done
	if r := waitRow(t, "buf_load", "concurrent", "shared"); r.Waits == 0 || r.Waits%(workers*rounds) != 0 || r.Waiting != 0 {
		t.Fatalf("shared cell = %+v, want a multiple of %d waits, none waiting", r, workers*rounds)
	}
	for g := 0; g < workers; g++ {
		if r := waitRow(t, "buf_load", "concurrent", fmt.Sprintf("own%d", g)); r.Waits == 0 || r.Waits%rounds != 0 || r.Waiting != 0 {
			t.Fatalf("own cell %d = %+v, want a multiple of %d waits", g, r, rounds)
		}
	}
}

// TestCountedWaitAllocatesNothing: once its cell exists, a wait costs
// no allocation, so counting can stay on in every configuration.
func TestCountedWaitAllocatesNothing(t *testing.T) {
	sp := NewSpan("alloctest")
	sp.SetRel("inv1")
	BeginWait(WaitBackendRead, sp, "").End()
	if n := testing.AllocsPerRun(100, func() {
		BeginWait(WaitBackendRead, sp, "").End()
	}); n != 0 {
		t.Fatalf("counted wait allocates %.1f times, want 0", n)
	}
}

// TestWaitProfileOverflowFold: past maxWaitKeys distinct cells, new
// (op, rel) pairs fold into the per-event "(other)" cell instead of
// growing the map without bound.
func TestWaitProfileOverflowFold(t *testing.T) {
	waitMu.Lock()
	saved := waitCells
	waitCells = make(map[waitKey]*waitCell)
	for i := 0; i < maxWaitKeys; i++ {
		waitCells[waitKey{WaitLogForce, fmt.Sprintf("op%d", i), ""}] = &waitCell{event: WaitLogForce}
	}
	waitMu.Unlock()
	defer func() {
		waitMu.Lock()
		waitCells = saved
		waitMu.Unlock()
	}()

	// The first fold creates the overflow cell; the second finds it.
	d := beginWait(WaitLockAcquire, "fresh-op", "fresh-rel").End()
	d += beginWait(WaitLockAcquire, "fresh-op2", "fresh-rel").End()

	p := SnapshotWaits()
	var folded bool
	for _, r := range p.Rows {
		if r.Event == "lock_acquire" && r.Op == waitOverflowLabel && r.Rel == waitOverflowLabel {
			folded = r.Waits == 2 && r.WaitNs == d
		}
		if r.Op == "fresh-op" || r.Op == "fresh-op2" {
			t.Fatal("overflow key was admitted instead of folded")
		}
	}
	if !folded {
		t.Fatalf("no overflow cell holding the wait in %d-row profile", len(p.Rows))
	}
}

// TestHistogramQuantileTopBucket pins the saturated-top-bucket contract:
// samples past the last bound report the bucket's lower bound — monotone
// and finite — rather than an invented interpolation above it.
func TestHistogramQuantileTopBucket(t *testing.T) {
	var h Histogram
	top := Bound(NumBuckets - 2) // lower bound of the open-ended bucket
	h.Observe(top * 16)          // far past the ladder
	s := h.Snapshot("t")
	if got := s.Quantile(0.99); got != top {
		t.Fatalf("p99 of one saturated sample = %d, want top lower bound %d", got, top)
	}
	if got := s.Quantile(1.0); got != top {
		t.Fatalf("p100 = %d, want %d", got, top)
	}

	// Mixed: fast samples interpolate normally, the tail clamps, and the
	// extraction stays monotone across the boundary.
	var m Histogram
	for i := 0; i < 99; i++ {
		m.Observe(2048) // bucket 1
	}
	m.Observe(top * 4)
	ms := m.Snapshot("m")
	if p50 := ms.Quantile(0.50); p50 <= 0 || p50 > Bound(1) {
		t.Fatalf("p50 = %d, want in (0, %d]", p50, Bound(1))
	}
	if p100 := ms.Quantile(1.0); p100 != top {
		t.Fatalf("p100 with saturated tail = %d, want %d", p100, top)
	}
	if ms.Quantile(0.5) > ms.Quantile(1.0) {
		t.Fatal("quantile extraction is not monotone across the top bucket")
	}
}

// TestFlightRecorderRing: a capacity-4 ring keeps the last 4 events
// oldest-first with strictly increasing sequence numbers.
func TestFlightRecorderRing(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		r.RecordMarker(fmt.Sprintf("m%d", i), "")
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("m%d", i+2); ev.Name != want {
			t.Errorf("event %d = %s, want %s (oldest-first after overwrite)", i, ev.Name, want)
		}
		if i > 0 && evs[i].Seq != evs[i-1].Seq+1 {
			t.Errorf("seq gap: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
		if ev.AtUnixNs == 0 {
			t.Errorf("event %d has no timestamp", i)
		}
	}
	// Partial fill returns only what was recorded.
	p := NewFlightRecorder(8)
	p.RecordLifecycle("log_force", "", 5, 1)
	if evs := p.Events(); len(evs) != 1 || evs[0].Kind != "lifecycle" {
		t.Fatalf("partial ring events = %+v", evs)
	}
	// nil recorder is inert.
	var nilRec *FlightRecorder
	nilRec.RecordMarker("x", "")
	if nilRec.Events() != nil {
		t.Fatal("nil recorder returned events")
	}
}

// TestFlightBundleRoundTrip dumps a populated recorder and parses the
// bundle back: version check, reason, wait profile, and the timeline.
func TestFlightBundleRoundTrip(t *testing.T) {
	r := ResetFlight(64)
	defer ResetFlight(0)
	r.RecordMarker("panic", "op mkdir: boom")
	r.RecordLifecycle("group_commit", "", 0, 3)
	d := SpanData{Op: "commit", TraceID: "00000000000000010000000000000002", WallNs: 777}
	r.RecordSpan(d)

	profile := WaitProfile{
		Rows: []WaitProfileRow{{Class: "IO", Event: "log_force", Waits: 4, WaitNs: 9000, Waiting: 1}}}
	var buf bytes.Buffer
	if err := r.WriteBundle(&buf, "test", &profile); err != nil {
		t.Fatal(err)
	}
	fb, err := ParseFlightBundle(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if fb.Version != flightBundleVersion || fb.Reason != "test" || fb.DumpedAtNs == 0 {
		t.Fatalf("bundle header = %+v", fb)
	}
	if fb.WaitProfile == nil || len(fb.WaitProfile.Rows) != 1 || fb.WaitProfile.Rows[0] != profile.Rows[0] {
		t.Fatalf("wait profile = %+v", fb.WaitProfile)
	}
	if len(fb.Events) != 3 {
		t.Fatalf("events = %d, want 3", len(fb.Events))
	}
	if fb.Events[0].Kind != "marker" || fb.Events[0].Detail != "op mkdir: boom" {
		t.Errorf("marker = %+v", fb.Events[0])
	}
	sp := fb.Events[2]
	if sp.Kind != "span" || sp.Span == nil || sp.Span.TraceID != d.TraceID || sp.Span.WallNs != 777 {
		t.Errorf("span event = %+v", sp)
	}

	// Wrong version is rejected.
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = 1
	b, _ := json.Marshal(raw)
	if _, err := ParseFlightBundle(b); err == nil {
		t.Fatal("version 1 bundle accepted")
	}
}

// TestTraceEndpoints drives /traces/recent's filters and cursor,
// /traces/by-id's stitching, and /debug/flight's bundle shape through
// the HTTP handler.
func TestTraceEndpoints(t *testing.T) {
	ResetFlight(64)
	defer ResetFlight(0)
	reg := NewRegistry()
	ring := NewTraceRing(16)
	trace := "0000000000000abc0000000000000def"
	spans := []SpanData{
		{Op: "read", WallNs: int64(1 * time.Millisecond), TraceID: trace},
		{Op: "write", WallNs: int64(5 * time.Millisecond), TraceID: trace},
		{Op: "read", WallNs: int64(20 * time.Millisecond), TraceID: "ffff0000000000000000000000000000"},
	}
	for _, d := range spans {
		ring.Record(d)
		Flight().RecordSpan(d)
	}
	h := Handler(reg, ring)

	get := func(url string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec.Code, rec.Body.Bytes()
	}
	type recentResp struct {
		Cursor uint64     `json:"cursor"`
		Spans  []SpanData `json:"spans"`
	}
	decode := func(b []byte) recentResp {
		var rr recentResp
		if err := json.Unmarshal(b, &rr); err != nil {
			t.Fatalf("bad /traces/recent JSON: %v\n%s", err, b)
		}
		return rr
	}

	code, body := get("/traces/recent")
	if code != 200 {
		t.Fatalf("recent: %d", code)
	}
	all := decode(body)
	if all.Cursor != 3 || len(all.Spans) != 3 {
		t.Fatalf("unfiltered: cursor %d, %d spans", all.Cursor, len(all.Spans))
	}

	if _, body := get("/traces/recent?op=write"); len(decode(body).Spans) != 1 {
		t.Fatalf("op filter: %s", body)
	}
	if _, body := get("/traces/recent?min_ms=4"); len(decode(body).Spans) != 2 {
		t.Fatalf("min_ms filter: %s", body)
	}
	if _, body := get("/traces/recent?min_ms=4.9"); len(decode(body).Spans) != 2 {
		t.Fatalf("fractional min_ms filter: %s", body)
	}
	// The cursor tails: asking for spans after the cursor returns none
	// until new spans arrive, then only the new ones.
	if _, body := get(fmt.Sprintf("/traces/recent?after=%d", all.Cursor)); len(decode(body).Spans) != 0 {
		t.Fatalf("after=cursor returned stale spans: %s", body)
	}
	ring.Record(SpanData{Op: "commit", WallNs: int64(50 * time.Millisecond)})
	_, body = get(fmt.Sprintf("/traces/recent?after=%d", all.Cursor))
	tail := decode(body)
	if len(tail.Spans) != 1 || tail.Spans[0].Op != "commit" || tail.Cursor != all.Cursor+1 {
		t.Fatalf("tail after new span: %s", body)
	}
	if code, _ := get("/traces/recent?min_ms=bogus"); code != 400 {
		t.Fatalf("bad min_ms: %d, want 400", code)
	}
	if code, _ := get("/traces/recent?after=bogus"); code != 400 {
		t.Fatalf("bad after: %d, want 400", code)
	}

	if code, _ := get("/traces/by-id"); code != 400 {
		t.Fatalf("by-id without id: %d, want 400", code)
	}
	_, body = get("/traces/by-id?id=" + trace)
	var byID struct {
		TraceID string     `json:"trace_id"`
		Spans   []SpanData `json:"spans"`
	}
	if err := json.Unmarshal(body, &byID); err != nil {
		t.Fatal(err)
	}
	if byID.TraceID != trace || len(byID.Spans) != 2 {
		t.Fatalf("by-id: %s", body)
	}

	code, body = get("/debug/flight")
	if code != 200 {
		t.Fatalf("flight: %d", code)
	}
	fb, err := ParseFlightBundle(body)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Reason != "http" || len(fb.Events) < 3 {
		t.Fatalf("flight bundle: reason %q, %d events", fb.Reason, len(fb.Events))
	}
}

// TestSpanIDs: minted ids are non-zero and distinct (splitmix64 over a
// seed+counter cannot collide within a run).
func TestSpanIDs(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewSpanID()
		if id == 0 || seen[id] {
			t.Fatalf("id %d: zero or repeated", id)
		}
		seen[id] = true
	}
	hi, lo := NewTraceID()
	if hi == 0 || lo == 0 {
		t.Fatal("zero trace id")
	}
}

// BenchmarkCountedWait measures the bookkeeping a blocking site adds
// around its block: BeginWait and End at an existing cell.
func BenchmarkCountedWait(b *testing.B) {
	sp := NewSpan("benchwait")
	sp.SetRel("inv1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BeginWait(WaitBackendRead, sp, "").End()
	}
}
