package obs

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is the per-request cost ledger. The wire server creates one per
// incoming request and activates it on the handling goroutine; the
// layers below (lock manager, buffer pool, simulated devices) then
// charge their waits and transfers to Active() without any parameter
// threading. All charge fields are atomics because eviction writebacks
// and commit flushes can overlap the request's own work under -race.
//
// Charges are disjoint by construction: LockWaitNs is time parked in
// the lock manager, BufLoadNs is time loading pages from the backend
// (including waiting on another goroutine's in-flight load), BufWriteNs
// is backend write time (writebacks and flushes), and CommitForceNs is
// log-force time only — the data-page flush inside a commit is already
// charged as BufWriteNs. DevSimNs is virtual 1993-clock charge, kept
// separate because it is not wall time.
type Span struct {
	Op      string
	txnID   atomic.Uint64
	rel     atomic.Pointer[string]
	outcome atomic.Pointer[string]

	// Trace context: set once by the server before the span is
	// activated (never concurrently), read when the span is flattened.
	// TraceHi/TraceLo form the 128-bit trace id shared by every op of a
	// logical client transaction; SpanID names this request within it;
	// ParentSpan is the client-side root span that minted the trace;
	// Attempt counts client retries of the same logical op (0 = first
	// try); Sampled carries the client's sampling decision.
	TraceHi, TraceLo uint64
	SpanID           uint64
	ParentSpan       uint64
	Attempt          uint8
	Sampled          bool

	BytesIn  int64
	BytesOut atomic.Int64

	StartUnixNs int64
	WallNs      atomic.Int64

	LockWaitNs    atomic.Int64
	BufLoadNs     atomic.Int64
	BufWriteNs    atomic.Int64
	CommitForceNs atomic.Int64
	DevSimNs      atomic.Int64

	BufHits      atomic.Int64
	BufMisses    atomic.Int64
	BufEvictions atomic.Int64
}

// NewSpan returns a span for the named operation.
func NewSpan(op string) *Span { return &Span{Op: op} }

// SetTxn records the transaction id serving this request.
func (s *Span) SetTxn(id uint64) {
	if s != nil {
		s.txnID.Store(id)
	}
}

// SetRel records the relation (file) the request touched. First writer
// wins: a request that opens several relations is attributed to the
// one it named.
func (s *Span) SetRel(name string) {
	if s == nil || s.rel.Load() != nil {
		return
	}
	s.rel.Store(&name)
}

// RelName reports the relation the span was attributed to ("" if none
// yet).
func (s *Span) RelName() string {
	if s == nil {
		return ""
	}
	if p := s.rel.Load(); p != nil {
		return *p
	}
	return ""
}

// SetOutcome records the final disposition (ok, error code, panic,
// reaped).
func (s *Span) SetOutcome(o string) {
	if s != nil {
		s.outcome.Store(&o)
	}
}

// AddLockWait charges lock-manager park time.
func (s *Span) AddLockWait(ns int64) {
	if s != nil {
		s.LockWaitNs.Add(ns)
	}
}

// AddBufLoad charges backend read time (or time spent waiting on
// another goroutine's in-flight load of the same page).
func (s *Span) AddBufLoad(ns int64) {
	if s != nil {
		s.BufLoadNs.Add(ns)
	}
}

// AddBufWrite charges backend write time (writebacks, flushes).
func (s *Span) AddBufWrite(ns int64) {
	if s != nil {
		s.BufWriteNs.Add(ns)
	}
}

// AddCommitForce charges log-force time at commit.
func (s *Span) AddCommitForce(ns int64) {
	if s != nil {
		s.CommitForceNs.Add(ns)
	}
}

// AddDevSim charges simulated (virtual-clock) device time.
func (s *Span) AddDevSim(ns int64) {
	if s != nil {
		s.DevSimNs.Add(ns)
	}
}

// BufHit counts a buffer-cache hit.
func (s *Span) BufHit() {
	if s != nil {
		s.BufHits.Add(1)
	}
}

// BufMiss counts a buffer-cache miss.
func (s *Span) BufMiss() {
	if s != nil {
		s.BufMisses.Add(1)
	}
}

// BufEvict counts an eviction this request performed to make room.
func (s *Span) BufEvict() {
	if s != nil {
		s.BufEvictions.Add(1)
	}
}

// AddBytesOut accumulates reply payload size.
func (s *Span) AddBytesOut(n int64) {
	if s != nil {
		s.BytesOut.Add(n)
	}
}

// Data flattens the span for the trace ring / JSON endpoint.
func (s *Span) Data() SpanData {
	d := SpanData{
		Op:          s.Op,
		Txn:         s.txnID.Load(),
		BytesIn:     s.BytesIn,
		BytesOut:    s.BytesOut.Load(),
		StartUnixNs: s.StartUnixNs,
		WallNs:      s.WallNs.Load(),
		LockWaitNs:  s.LockWaitNs.Load(),
		BufLoadNs:   s.BufLoadNs.Load(),
		BufWriteNs:  s.BufWriteNs.Load(),
		CommitNs:    s.CommitForceNs.Load(),
		DevSimNs:    s.DevSimNs.Load(),
		BufHits:     s.BufHits.Load(),
		BufMisses:   s.BufMisses.Load(),
		BufEvicts:   s.BufEvictions.Load(),
	}
	if p := s.rel.Load(); p != nil {
		d.Rel = *p
	}
	if p := s.outcome.Load(); p != nil {
		d.Outcome = *p
	}
	if s.TraceHi != 0 || s.TraceLo != 0 {
		d.TraceID = fmt.Sprintf("%016x%016x", s.TraceHi, s.TraceLo)
	}
	if s.SpanID != 0 {
		d.SpanID = fmt.Sprintf("%016x", s.SpanID)
	}
	if s.ParentSpan != 0 {
		d.ParentSpan = fmt.Sprintf("%016x", s.ParentSpan)
	}
	d.Attempt = int(s.Attempt)
	return d
}

// SpanData is the JSON-ready form of a finished span.
type SpanData struct {
	Op          string `json:"op"`
	Txn         uint64 `json:"txn,omitempty"`
	Rel         string `json:"rel,omitempty"`
	Outcome     string `json:"outcome"`
	TraceID     string `json:"trace_id,omitempty"`
	SpanID      string `json:"span_id,omitempty"`
	ParentSpan  string `json:"parent_span_id,omitempty"`
	Attempt     int    `json:"attempt,omitempty"`
	Seq         uint64 `json:"seq,omitempty"`
	BytesIn     int64  `json:"bytes_in"`
	BytesOut    int64  `json:"bytes_out"`
	StartUnixNs int64  `json:"start_unix_ns"`
	WallNs      int64  `json:"wall_ns"`
	LockWaitNs  int64  `json:"lock_wait_ns"`
	BufLoadNs   int64  `json:"buf_load_ns"`
	BufWriteNs  int64  `json:"buf_write_ns"`
	CommitNs    int64  `json:"commit_force_ns"`
	DevSimNs    int64  `json:"dev_sim_ns"`
	BufHits     int64  `json:"buf_hits"`
	BufMisses   int64  `json:"buf_misses"`
	BufEvicts   int64  `json:"buf_evictions"`
}

// Goroutine-local active-span storage. The wire server handles one
// request per connection goroutine, synchronously, so "the span this
// goroutine is serving" is well-defined. spanCount gates the slow path:
// when no spans are active anywhere in the process (benchmarks, unit
// tests, the single-process library), Active() is one atomic load and
// returns nil, so charge sites cost nothing.
var (
	spanCount atomic.Int64
	active    sync.Map // goid int64 -> *Span
)

// goid parses the current goroutine's id from the runtime stack header
// ("goroutine N [..."). 4–6µs measured on the served path (the
// benchmark's obs.active_ns probe) — only paid while a span is active
// on some goroutine.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	b := buf[:n]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// Activate binds s to the calling goroutine until Deactivate. Nested
// activation is not supported (the server activates exactly one span
// per request). Activate(nil) is equivalent to Deactivate: it removes
// the goroutine's slot from the goid map, so cleanup paths (including
// panic recovery) may call it unconditionally without leaking the slot
// — a leaked slot would pin spanCount above zero forever, making every
// charge site in the process pay the goid parse for the rest of its
// life.
func Activate(s *Span) {
	if s == nil {
		Deactivate()
		return
	}
	spanCount.Add(1)
	active.Store(goid(), s)
}

// ActiveSpanCount reports how many spans are bound to goroutines
// process-wide. Zero means every charge site is on the one-atomic-load
// fast path; tests use it to prove span slots do not leak.
func ActiveSpanCount() int64 { return spanCount.Load() }

// Deactivate unbinds the calling goroutine's span.
func Deactivate() {
	if _, ok := active.LoadAndDelete(goid()); ok {
		spanCount.Add(-1)
	}
}

// Active reports the span bound to the calling goroutine, or nil. The
// no-tracing fast path is a single atomic load.
func Active() *Span {
	if spanCount.Load() == 0 {
		return nil
	}
	if v, ok := active.Load(goid()); ok {
		return v.(*Span)
	}
	return nil
}

// spanIDSeed randomizes minted ids across process restarts without
// consulting anything but the wall clock once at startup. The virtual
// benchmark clock is never involved.
var (
	spanIDSeed = uint64(time.Now().UnixNano())
	spanIDSeq  atomic.Uint64
)

// mix64 is splitmix64's finalizer: cheap, stateless, and good enough to
// make sequential ids look unrelated.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewSpanID mints a process-unique non-zero 64-bit span id.
func NewSpanID() uint64 {
	for {
		if id := mix64(spanIDSeed + spanIDSeq.Add(1)); id != 0 {
			return id
		}
	}
}

// NewTraceID mints a 128-bit trace id as two halves. Servers use it
// for requests that arrive without a client trace context, so every
// span belongs to some trace.
func NewTraceID() (hi, lo uint64) {
	return NewSpanID(), NewSpanID()
}

// TraceRing keeps the slowest N recently finished spans, for the
// /traces/recent endpoint. Record is O(N) under a mutex but only runs
// once per finished request, on requests slow enough to matter.
//
// Every offered span consumes a sequence number whether or not it is
// kept; the ring's cursor is the last consumed number, so a scraper
// that remembers the cursor can ask "anything recorded since?" and
// tail the ring without re-reading entries it has already seen.
type TraceRing struct {
	mu    sync.Mutex
	seq   uint64
	cap   int
	spans []SpanData
}

// NewTraceRing returns a ring keeping the slowest n spans.
func NewTraceRing(n int) *TraceRing { return &TraceRing{cap: n} }

// Record offers a finished span to the ring. The ring keeps the
// slowest cap spans by wall time, newest-first among ties.
func (r *TraceRing) Record(d SpanData) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	d.Seq = r.seq
	if len(r.spans) < r.cap {
		r.spans = append(r.spans, d)
		return
	}
	// Replace the fastest entry if the newcomer is slower.
	min := 0
	for i := 1; i < len(r.spans); i++ {
		if r.spans[i].WallNs < r.spans[min].WallNs {
			min = i
		}
	}
	if d.WallNs >= r.spans[min].WallNs {
		r.spans[min] = d
	}
}

// Cursor reports the sequence number of the most recently recorded
// span (0 if none). Spans with Seq > a remembered cursor were recorded
// after it.
func (r *TraceRing) Cursor() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Slowest returns the ring's contents sorted slowest-first.
func (r *TraceRing) Slowest() []SpanData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]SpanData, len(r.spans))
	copy(out, r.spans)
	r.mu.Unlock()
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].WallNs > out[j-1].WallNs; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
