package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
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
// encoding, including a counter saturated at MaxUint32 — the value a
// weeks-long profile converges to instead of wrapping.
func TestWaitProfileEncodeDecode(t *testing.T) {
	p := WaitProfile{
		IntervalNs: int64(10 * time.Millisecond),
		Rounds:     123456789,
		Rows: []WaitProfileRow{
			{Class: "IO", Event: "log_force", Op: "commit", Samples: 42},
			{Class: "Lock", Event: "lock_acquire", Op: "open", Rel: "inv99", Samples: math.MaxUint32},
			{Class: "Activity", Event: "bgwriter_idle", Op: "bgwriter", Samples: 1},
		},
	}
	got, err := DecodeWaitProfile(EncodeWaitProfile(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.IntervalNs != p.IntervalNs || got.Rounds != p.Rounds {
		t.Fatalf("header = (%d, %d), want (%d, %d)", got.IntervalNs, got.Rounds, p.IntervalNs, p.Rounds)
	}
	if len(got.Rows) != len(p.Rows) {
		t.Fatalf("rows = %d, want %d", len(got.Rows), len(p.Rows))
	}
	for i, r := range got.Rows {
		if r != p.Rows[i] {
			t.Errorf("row %d = %+v, want %+v", i, r, p.Rows[i])
		}
	}
	if got.Rows[1].Samples != math.MaxUint32 {
		t.Fatalf("saturated counter = %d, want MaxUint32", got.Rows[1].Samples)
	}

	// Empty profile round-trips too (the no-sampler server response).
	empty, err := DecodeWaitProfile(EncodeWaitProfile(WaitProfile{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Rows) != 0 {
		t.Fatalf("empty profile decoded %d rows", len(empty.Rows))
	}

	// Unknown versions are rejected loudly, not misparsed.
	b := EncodeWaitProfile(p)
	b[0] = 99
	if _, err := DecodeWaitProfile(b); err == nil {
		t.Fatal("version 99 accepted")
	}
	// Truncation surfaces as an error, not a short profile.
	if _, err := DecodeWaitProfile(EncodeWaitProfile(p)[:10]); err == nil {
		t.Fatal("truncated profile accepted")
	}
}

// TestWaitSamplerObservesWait runs a real sampler against a goroutine
// parked in BeginWait and checks the published (event, op, rel) lands in
// the profile with class attribution.
func TestWaitSamplerObservesWait(t *testing.T) {
	s := NewWaitSampler(time.Millisecond, nil)
	s.Start()
	defer s.Stop()

	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		sp := NewSpan("open")
		sp.SetRel("inv7")
		Activate(sp)
		defer Activate(nil)
		w := BeginWait(WaitLockAcquire, "")
		<-release
		w.End()
	}()

	deadline := time.After(2 * time.Second)
	for {
		p := s.Snapshot()
		found := false
		for _, r := range p.Rows {
			if r.Event == "lock_acquire" && r.Op == "open" && r.Rel == "inv7" &&
				r.Class == "Lock" && r.Samples > 0 {
				found = true
			}
		}
		if found {
			break
		}
		select {
		case <-deadline:
			close(release)
			<-done
			t.Fatalf("lock_acquire never sampled; profile = %+v", s.Snapshot())
		case <-time.After(2 * time.Millisecond):
		}
	}
	close(release)
	<-done

	if s.Snapshot().Rounds == 0 {
		t.Fatal("sampler reported zero rounds")
	}
}

// TestWaitSamplerGate proves the off state is really off: with no
// sampler attached, BeginWait returns nil (one atomic load, no slot).
func TestWaitSamplerGate(t *testing.T) {
	if w := BeginWait(WaitLogForce, ""); w != nil {
		t.Fatal("BeginWait returned a slot with no sampler attached")
	}
	if w := BeginWaitLoop(WaitReaperIdle, "reaper"); w != nil {
		t.Fatal("BeginWaitLoop returned a slot with no sampler attached")
	}
	// nil slots are safe to End.
	var w *WaitSlot
	w.End()
}

// TestWaitProfileOverflowFold: past maxWaitKeys distinct cells, new
// (op, rel) pairs fold into the per-event "(other)" cell instead of
// growing the map without bound.
func TestWaitProfileOverflowFold(t *testing.T) {
	s := NewWaitSampler(time.Hour, nil) // never ticks; we drive sampleOnce
	s.mu.Lock()
	for i := 0; i < maxWaitKeys; i++ {
		s.prof[waitKey{WaitLogForce, fmt.Sprintf("op%d", i), ""}] = 1
	}
	s.mu.Unlock()

	slot := beginWait(WaitLockAcquire, "fresh-op", "fresh-rel")
	s.sampleOnce()
	slot.End()

	p := s.Snapshot()
	var folded bool
	for _, r := range p.Rows {
		if r.Event == "lock_acquire" && r.Op == waitOverflowLabel && r.Rel == waitOverflowLabel {
			folded = true
		}
		if r.Op == "fresh-op" {
			t.Fatal("overflow key was admitted instead of folded")
		}
	}
	if !folded {
		t.Fatalf("no overflow cell in %d-row profile", len(p.Rows))
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

	profile := WaitProfile{IntervalNs: 1e7, Rounds: 9,
		Rows: []WaitProfileRow{{Class: "IO", Event: "log_force", Samples: 4}}}
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
	if fb.WaitProfile == nil || fb.WaitProfile.Rounds != 9 {
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
	raw["version"] = 2
	b, _ := json.Marshal(raw)
	if _, err := ParseFlightBundle(b); err == nil {
		t.Fatal("version 2 bundle accepted")
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
