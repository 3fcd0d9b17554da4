package wire

import (
	"bytes"
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

// startWaitServer is startServerCfg returning the database too, for
// tests that compare the wait profile with what the server reports.
func startWaitServer(t *testing.T) (*Server, string, *core.DB) {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := typefuncs.RegisterAll(db.NewSession("setup")); err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(db, ServerConfig{IdleTimeout: time.Minute})
	srv.SetLogf(func(string, ...any) {})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, db
}

// TestPanicDoesNotLeakSpanSlot is the wire-level span-leak regression:
// a handler panic must still unbind the request's span from the
// goroutine. Before Activate(nil) became a real Deactivate, the slot
// survived the recovery, pinning the active-span count above zero and
// taxing every charge site in the process with a goid lookup forever.
func TestPanicDoesNotLeakSpanSlot(t *testing.T) {
	hook := func(op byte, payload []byte) {
		if op == OpMkdir && bytes.Contains(payload, []byte("boom")) {
			panic("injected leak probe")
		}
	}
	_, addr, _ := startServerCfg(t, ServerConfig{IdleTimeout: time.Minute}, hook)
	base := obs.ActiveSpanCount()

	c := dial(t, addr, "leaker")
	if err := c.Mkdir("/boom"); err == nil || !strings.Contains(err.Error(), "internal server error") {
		t.Fatalf("panicked request error = %v", err)
	}
	// The reply is written after the span is unbound, so by the time the
	// client sees the error the slot is gone; a short poll absorbs any
	// cleanup still racing on the server side.
	deadline := time.After(2 * time.Second)
	for obs.ActiveSpanCount() != base {
		select {
		case <-deadline:
			t.Fatalf("active span count = %d, want %d: panicked handler leaked its slot",
				obs.ActiveSpanCount(), base)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestPanicProducesFlightBundle: a handler panic must leave a usable
// crash timeline in the flight recorder — the panicking op's span with
// outcome "panic", a panic marker naming the op, and the configured
// PanicHook fired (invd's hook writes the bundle to disk).
func TestPanicProducesFlightBundle(t *testing.T) {
	obs.ResetFlight(256)
	defer obs.ResetFlight(0)

	hooked := make(chan string, 1)
	hook := func(op byte, payload []byte) {
		if op == OpMkdir && bytes.Contains(payload, []byte("boom")) {
			panic("flight probe")
		}
	}
	_, addr, _ := startServerCfg(t, ServerConfig{
		IdleTimeout: time.Minute,
		PanicHook: func(op string, recovered any) {
			hooked <- fmt.Sprintf("%s: %v", op, recovered)
		},
	}, hook)

	c := dial(t, addr, "crasher")
	if err := c.Mkdir("/ok"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/boom"); err == nil {
		t.Fatal("panicked request succeeded")
	}

	select {
	case got := <-hooked:
		if !strings.Contains(got, "mkdir") || !strings.Contains(got, "flight probe") {
			t.Fatalf("panic hook saw %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("panic hook never fired")
	}

	var buf bytes.Buffer
	if err := obs.Flight().WriteBundle(&buf, "test-panic", nil); err != nil {
		t.Fatal(err)
	}
	fb, err := obs.ParseFlightBundle(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sawPanicSpan, sawMarker, sawOKSpan bool
	for _, ev := range fb.Events {
		switch {
		case ev.Kind == "span" && ev.Span != nil && ev.Span.Op == "mkdir" && ev.Span.Outcome == "panic":
			sawPanicSpan = true
		case ev.Kind == "marker" && ev.Name == "panic" && strings.Contains(ev.Detail, "mkdir"):
			sawMarker = true
		case ev.Kind == "span" && ev.Span != nil && ev.Span.Op == "mkdir" && ev.Span.Outcome == "ok":
			sawOKSpan = true
		}
	}
	if !sawPanicSpan || !sawMarker || !sawOKSpan {
		t.Fatalf("bundle timeline missing events: panicSpan=%v marker=%v okSpan=%v (%d events)",
			sawPanicSpan, sawMarker, sawOKSpan, len(fb.Events))
	}
}

// TestTraceStitchedAcrossRetry: every op in a transaction bracket
// carries the trace minted at Begin, and a retried op keeps that trace
// id across a forced reconnect — only its attempt counter advances. The
// server therefore sees the whole transaction, retries included, as one
// trace.
func TestTraceStitchedAcrossRetry(t *testing.T) {
	srv, addr, _ := startServerCfg(t, ServerConfig{IdleTimeout: time.Minute}, nil)
	c, err := DialWithConfig(DialConfig{Addr: addr, Owner: "tracer", MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	if err := c.PBegin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/", 0); err != nil {
		t.Fatal(err)
	}
	// Sever the live connection out from under the client: the next
	// idempotent read fails its first send, reconnects, and retries.
	c.connMu.Lock()
	c.conn.Close()
	c.connMu.Unlock()
	if _, err := c.Stat("/", 0); err != nil {
		t.Fatalf("retried stat failed: %v", err)
	}

	// The transaction died with the connection; stitch the server-side
	// spans by the trace id the begin span carries.
	spans := srv.Traces().Slowest()
	var trace string
	for _, d := range spans {
		if d.Op == "begin" {
			trace = d.TraceID
		}
	}
	if trace == "" {
		t.Fatalf("no begin span in %d traced spans", len(spans))
	}
	var stitched []string
	var retried bool
	for _, d := range spans {
		if d.TraceID != trace {
			continue
		}
		stitched = append(stitched, fmt.Sprintf("%s/a%d", d.Op, d.Attempt))
		if d.Op == "stat" && d.Attempt == 1 {
			retried = true
		}
		if d.SpanID == "" {
			t.Errorf("span %s has no span id", d.Op)
		}
	}
	if len(stitched) < 3 {
		t.Fatalf("trace %s stitched only %v, want begin + both stats", trace, stitched)
	}
	if !retried {
		t.Fatalf("no stat with attempt=1 in %v: retry minted a new trace instead of keeping it", stitched)
	}

	// An op outside any transaction mints its own fresh trace.
	if err := c.PAbort(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/", 0); err != nil {
		t.Fatal(err)
	}
	solo := srv.Traces().Slowest()
	for _, d := range solo {
		if d.Op == "stat" && d.TraceID == "" {
			t.Fatal("stat span missing trace id")
		}
	}
}

// TestLockWaitEventAttribution: a transaction parked in the lock
// manager is counted as a Lock-class lock_acquire wait attributed to
// the relation whose lock it wants, and the profile's wait_ns for that
// cell equals, to the nanosecond, the lock_wait_ns its request span
// reports in inv_traces: the park is timed once and charged to both.
func TestLockWaitEventAttribution(t *testing.T) {
	_, addr, db := startWaitServer(t)

	c1 := dial(t, addr, "holder")
	if err := c1.PBegin(); err != nil {
		t.Fatal(err)
	}
	fd, err := c1.PCreat("/hot", core.CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.PClose(fd); err != nil {
		t.Fatal(err)
	}
	if err := c1.PCommit(); err != nil {
		t.Fatal(err)
	}
	attr, err := c1.Stat("/hot", 0)
	if err != nil {
		t.Fatal(err)
	}
	wantRel := fmt.Sprintf("inv%d", attr.File)
	// The profile is process-wide, so compare against the cell as it
	// stood before this test parked anything.
	cell := func() obs.WaitProfileRow {
		for _, r := range db.WaitProfile().Rows {
			if r.Event == "lock_acquire" && r.Op == "open" && r.Rel == wantRel {
				return r
			}
		}
		return obs.WaitProfileRow{}
	}
	before := cell()

	// Holder takes the exclusive lock; the blocker parks behind it.
	if err := c1.PBegin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.POpen("/hot", true, 0); err != nil {
		t.Fatal(err)
	}
	c2 := dial(t, addr, "blocker")
	blocked := make(chan error, 1)
	go func() {
		if err := c2.PBegin(); err != nil {
			blocked <- err
			return
		}
		_, err := c2.POpen("/hot", true, 0)
		blocked <- err
	}()

	// The cell's waiting gauge turns 1 exactly when the blocker parks.
	deadline := time.After(5 * time.Second)
	for cell().Waiting == 0 {
		select {
		case <-deadline:
			t.Fatalf("blocker never parked on %s; profile = %+v", wantRel, db.WaitProfile())
		case err := <-blocked:
			t.Fatalf("blocker was not blocked: %v", err)
		case <-time.After(time.Millisecond):
		}
	}

	// Release and drain the blocker before reading the catalogs.
	if err := c1.PAbort(); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("blocker failed after release: %v", err)
	}
	if err := c2.PAbort(); err != nil {
		t.Fatal(err)
	}

	after := cell()
	if after.Class != "Lock" || after.Waiting != 0 || after.Waits != before.Waits+1 {
		t.Fatalf("lock_acquire cell after the park = %+v (before %+v), want one more wait, none waiting", after, before)
	}
	waitNs := after.WaitNs - before.WaitNs
	if waitNs <= 0 {
		t.Fatalf("lock_acquire wait_ns grew by %d", waitNs)
	}

	res, err := c1.Query(fmt.Sprintf(
		`retrieve (t.lock_wait_ns) from t in inv_traces where t.op = "open" and t.relation = "%s" and t.lock_wait_ns > 0`, wantRel))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("inv_traces has %d parked opens of %s, want 1: %v", len(res.Rows), wantRel, res.Rows)
	}
	if got := res.Rows[0][0].I; got != waitNs {
		t.Fatalf("span lock_wait_ns = %d, profile lock_acquire wait_ns = %d: the park was timed twice", got, waitNs)
	}

	res, err = c1.Query(fmt.Sprintf(
		`retrieve (w.waits, w.wait_ns, w.waiting) from w in inv_wait_events where w.event = "lock_acquire" and w.op = "open" and w.relation = "%s"`, wantRel))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != int64(after.Waits) || res.Rows[0][1].I != after.WaitNs || res.Rows[0][2].I != 0 {
		t.Fatalf("inv_wait_events row for %s = %v, want %+v", wantRel, res.Rows, after)
	}
}

// TestClientWaitProfile round-trips the counted profile over the wire:
// an open wait shows as waiting, and once ended its count and
// nanoseconds arrive exactly as End reported them.
func TestClientWaitProfile(t *testing.T) {
	_, addr, _ := startWaitServer(t)
	c := dial(t, addr, "profiler")
	// The profile is process-wide, so compare against the cell as it
	// stood before (a zero row if it is new).
	row := func() obs.WaitProfileRow {
		t.Helper()
		p, err := c.WaitProfile()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range p.Rows {
			if r.Event == "log_force" && r.Op == "wireprobe" && r.Rel == "inv-wireprobe" {
				return r
			}
		}
		return obs.WaitProfileRow{}
	}

	before := row()
	w := obs.BeginWait(obs.WaitLogForce, obs.NewSpan("wireprobe"), "inv-wireprobe")
	if r := row(); r.Class != "IO" || r.Waiting != 1 || r.Waits != before.Waits {
		w.End()
		t.Fatalf("open wait over the wire = %+v (before %+v)", r, before)
	}
	d := w.End()
	if r := row(); r.Waiting != 0 || r.Waits != before.Waits+1 || r.WaitNs != before.WaitNs+d {
		t.Fatalf("ended wait over the wire = %+v (before %+v), want 1 more wait of %dns", r, before, d)
	}
}

// TestTraceCtxWireFormat pins the frame-level encoding: the flag bit,
// the 26-byte prefix, and the truncation error.
func TestTraceCtxWireFormat(t *testing.T) {
	tc := traceCtx{Hi: 0x1111, Lo: 0x2222, Parent: 0x3333, Sampled: true, Attempt: 7}
	framed := appendTraceCtx(nil, tc)
	if len(framed) != traceCtxLen {
		t.Fatalf("encoded length = %d, want %d", len(framed), traceCtxLen)
	}
	framed = append(framed, []byte("payload")...)

	op, payload, got, has, err := splitTraceCtx(OpStat|opTraceFlag, framed)
	if err != nil || !has {
		t.Fatalf("split: err=%v has=%v", err, has)
	}
	if op != OpStat || string(payload) != "payload" {
		t.Fatalf("op=%d payload=%q", op, payload)
	}
	if got != tc {
		t.Fatalf("decoded %+v, want %+v", got, tc)
	}

	// No flag: passthrough, old clients keep working.
	op, payload, _, has, err = splitTraceCtx(OpStat, []byte("raw"))
	if err != nil || has || op != OpStat || string(payload) != "raw" {
		t.Fatalf("passthrough: op=%d payload=%q has=%v err=%v", op, payload, has, err)
	}

	// Flagged but short: a loud error, not a misparse.
	if _, _, _, _, err := splitTraceCtx(OpStat|opTraceFlag, framed[:10]); err == nil {
		t.Fatal("truncated trace context accepted")
	}
}
