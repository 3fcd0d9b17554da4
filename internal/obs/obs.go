// Package obs is the observability layer: a lock-cheap metrics registry
// (atomic counters, gauges read from their owners, and fixed-bucket
// latency histograms with quantile extraction) plus per-request trace
// spans with per-layer cost attribution. Every storage layer records
// into a registry owned by its database, the wire server records a span
// per request, and the whole registry travels over the wire as a Snapshot (the statsv2 op) or is
// scraped as Prometheus text.
//
// The design goal is the paper's Table 3 decomposition, live: a single
// traced request shows where its time went (lock waits, buffer misses,
// writebacks, simulated device charges), and the registry shows the
// same costs as distributions (p50/p95/p99), not averages — the lesson
// of the HopsFS evaluation.
//
// Cost discipline: counters and histograms are single atomic adds, so
// the registry stays on even in benchmarks; spans cost nothing unless a
// request activates one (a single atomic load guards every charge
// site), so the simulated-clock benchmark digits are unaffected.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter
// is valid and ignores all operations, so layers may record
// unconditionally whether or not a registry was attached.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load reports the current value (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry is a named collection of counters, gauges, and histograms.
// It holds no copy of any statistic: a counter is either created here
// or published by the layer that owns it (PublishCounter), and a gauge
// is a function read at snapshot time (GaugeFunc). Lookup-or-create
// takes a mutex; layers do it once at wiring time and cache the
// returned pointers, so the hot path is pure atomics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// PublishCounter registers a counter a layer already owns under name,
// so the registry reads that counter in place and Counter(name)
// returns the same pointer. It replaces any counter of that name.
func (r *Registry) PublishCounter(name string, c *Counter) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] = c
	r.mu.Unlock()
}

// GaugeFunc registers a gauge whose value is fn's result at snapshot
// time. fn may take other locks (catalog, transaction manager): it is
// called with no registry lock held. It replaces any gauge of that
// name.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// NamedValue is one counter or gauge in a snapshot.
type NamedValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a point-in-time copy of a registry, with every section
// sorted by name so output order is stable across runs and machines.
type Snapshot struct {
	Counters []NamedValue        `json:"counters"`
	Gauges   []NamedValue        `json:"gauges"`
	Hists    []HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry. Values are read with atomic loads, so a
// snapshot taken under load is internally slightly skewed but never
// torn. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	var gauges []func() int64 // evaluated once the lock is dropped
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, NamedValue{name, c.Load()})
	}
	for name, fn := range r.gauges {
		s.Gauges = append(s.Gauges, NamedValue{Name: name})
		gauges = append(gauges, fn)
	}
	for name, h := range r.hists {
		s.Hists = append(s.Hists, h.Snapshot(name))
	}
	r.mu.Unlock()
	for i, fn := range gauges {
		s.Gauges[i].Value = fn()
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	return s
}
