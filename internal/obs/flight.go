package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Flight recorder: an always-on, lock-cheap ring of the last few
// thousand observability events — finished request spans and subsystem
// lifecycle events (log forces, checkpoints,
// background-writer rounds, group-commit batches, panics). When
// something goes wrong (a handler panic, a failed scrub-on-start, an
// operator's SIGUSR1) the ring is dumped as a JSON bundle, giving the
// incident a causal timeline instead of a stack trace and a shrug.
//
// The ring is process-global, like the span slot table: crashes do not
// respect DB boundaries, and the dump path must work from a panic
// handler with no plumbing. Recording is a mutex-protected index bump
// plus a struct copy; events are preallocated slots so steady-state
// recording does not allocate.

// FlightEvent is one entry in the recorder. Kind discriminates:
//
//	"span"      a finished request (Span carries the data, including
//	            its lock, load, write and commit waits)
//	"lifecycle" a subsystem event (Name: log_force, checkpoint,
//	            bgwriter_flush, group_commit, ...)
//	"marker"    a free-form annotation (panics, dump reasons)
type FlightEvent struct {
	Seq      uint64    `json:"seq"`
	AtUnixNs int64     `json:"at_unix_ns"`
	Kind     string    `json:"kind"`
	Name     string    `json:"name,omitempty"`
	Detail   string    `json:"detail,omitempty"`
	DurNs    int64     `json:"dur_ns,omitempty"`
	Count    int64     `json:"count,omitempty"`
	Span     *SpanData `json:"span,omitempty"`
}

// FlightRecorder is a fixed-size overwrite-oldest ring of FlightEvents.
type FlightRecorder struct {
	mu   sync.Mutex
	seq  uint64
	next int
	full bool
	ring []FlightEvent
}

// DefaultFlightEvents is the default ring capacity: at a sustained
// 1000 req/s this holds the last ~4 seconds before a crash, and far
// more of the low-frequency lifecycle history.
const DefaultFlightEvents = 4096

var flightRec atomic.Pointer[FlightRecorder]

func init() {
	flightRec.Store(NewFlightRecorder(DefaultFlightEvents))
}

// Flight returns the process-global flight recorder.
func Flight() *FlightRecorder { return flightRec.Load() }

// ResetFlight replaces the global recorder with a fresh one of the
// given capacity (0 = default) and returns it. Tests use it for
// isolation; production code never calls it.
func ResetFlight(capacity int) *FlightRecorder {
	r := NewFlightRecorder(capacity)
	flightRec.Store(r)
	return r
}

// NewFlightRecorder returns a recorder holding the last n events
// (0 or negative = DefaultFlightEvents).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightEvents
	}
	return &FlightRecorder{ring: make([]FlightEvent, n)}
}

// Record appends an event, stamping its sequence number and wall time
// (if unset) and overwriting the oldest entry when full. Safe on nil.
func (r *FlightRecorder) Record(ev FlightEvent) {
	if r == nil {
		return
	}
	if ev.AtUnixNs == 0 {
		ev.AtUnixNs = time.Now().UnixNano()
	}
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	r.ring[r.next] = ev
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// RecordSpan files a finished request span.
func (r *FlightRecorder) RecordSpan(d SpanData) {
	r.Record(FlightEvent{Kind: "span", Name: d.Op, Span: &d})
}

// RecordLifecycle files a subsystem lifecycle event.
func (r *FlightRecorder) RecordLifecycle(name, detail string, durNs, count int64) {
	r.Record(FlightEvent{Kind: "lifecycle", Name: name, Detail: detail, DurNs: durNs, Count: count})
}

// RecordMarker files a free-form annotation (panic, dump trigger).
func (r *FlightRecorder) RecordMarker(name, detail string) {
	r.Record(FlightEvent{Kind: "marker", Name: name, Detail: detail})
}

// Events returns the ring's contents oldest-first.
func (r *FlightRecorder) Events() []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []FlightEvent
	if r.full {
		out = make([]FlightEvent, 0, len(r.ring))
		out = append(out, r.ring[r.next:]...)
		out = append(out, r.ring[:r.next]...)
	} else {
		out = make([]FlightEvent, r.next)
		copy(out, r.ring[:r.next])
	}
	return out
}

// FlightBundle is the dumped form of the recorder: why it was dumped,
// when, an optional wait profile, and the event timeline oldest-first.
type FlightBundle struct {
	Version     int           `json:"version"`
	Reason      string        `json:"reason"`
	DumpedAtNs  int64         `json:"dumped_at_unix_ns"`
	WaitProfile *WaitProfile  `json:"wait_profile,omitempty"`
	Events      []FlightEvent `json:"events"`
}

// flightBundleVersion versions the bundle JSON so parsers can reject
// shapes they do not understand.
const flightBundleVersion = 2

// WriteBundle dumps the recorder as an indented JSON bundle. profile
// may be nil; its waiting column shows what was blocked at dump time.
func (r *FlightRecorder) WriteBundle(w io.Writer, reason string, profile *WaitProfile) error {
	b := FlightBundle{
		Version:    flightBundleVersion,
		Reason:     reason,
		DumpedAtNs: time.Now().UnixNano(),
		Events:     r.Events(),
	}
	if b.Events == nil {
		b.Events = []FlightEvent{}
	}
	b.WaitProfile = profile
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ParseFlightBundle reads a dumped bundle back, rejecting unknown
// versions, so the format is a contract rather than a log line.
func ParseFlightBundle(b []byte) (FlightBundle, error) {
	var fb FlightBundle
	if err := json.Unmarshal(b, &fb); err != nil {
		return fb, fmt.Errorf("obs: flight bundle: %w", err)
	}
	if fb.Version != flightBundleVersion {
		return fb, fmt.Errorf("obs: flight bundle version %d (want %d)", fb.Version, flightBundleVersion)
	}
	return fb, nil
}
