package obs

import "fmt"

// Metrics history: turning a live registry into a stream of recorded
// samples. The registry itself is cumulative state — counters only
// grow, histograms only accumulate — which is the wrong shape for a
// time series: replaying "what happened between 14:00 and 14:05" from
// cumulative values requires subtracting neighbouring scrapes anyway.
// HistoryDiffer does that subtraction at record time, so what lands in
// the history relations is already per-tick truth: counters as deltas,
// gauges as points, histograms as the p50/p95/p99 of the distribution
// so far plus the per-tick observation count.
//
// Nothing here reads any clock, virtual or wall — the differ is pure
// arithmetic over two snapshots. Timestamps belong to the recorder
// that owns the tick.

// Sample kinds. A counter sample's value is the delta since the
// previous tick; a gauge sample is the value at the tick; a quantile
// sample is the named quantile of the cumulative distribution at the
// tick (quantiles do not difference meaningfully, so they are recorded
// as points like gauges).
const (
	SampleCounter  = "counter"
	SampleGauge    = "gauge"
	SampleQuantile = "quantile"
)

// HistorySample is one recorded metric point within a tick.
type HistorySample struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Kind   string  `json:"kind"`
	Value  float64 `json:"value"`
}

// HistoryDiffer converts successive registry snapshots (plus the wait
// profile, whose per-(op, rel) cells exist nowhere else) into per-tick
// samples. It remembers the previous tick's cumulative values; the
// first Diff differences against zero, so a fresh differ attached to a
// long-lived registry records the full cumulative state as its first
// tick — exactly what a recorder restarting after a crash wants.
type HistoryDiffer struct {
	prevCounters map[string]int64
	prevHistN    map[string]int64
	prevWait     map[string]int64
}

// NewHistoryDiffer returns a differ with no previous tick.
func NewHistoryDiffer() *HistoryDiffer {
	return &HistoryDiffer{
		prevCounters: make(map[string]int64),
		prevHistN:    make(map[string]int64),
		prevWait:     make(map[string]int64),
	}
}

// Diff produces the samples for one tick and advances the differ's
// previous-tick state. Zero counter deltas are skipped (an idle system
// records almost nothing); gauges are always recorded so a flat gauge
// still has points to plot; histograms with no observations yet are
// skipped entirely.
func (d *HistoryDiffer) Diff(snap Snapshot, wp WaitProfile) []HistorySample {
	var out []HistorySample
	for _, c := range snap.Counters {
		delta := c.Value - d.prevCounters[c.Name]
		d.prevCounters[c.Name] = c.Value
		if delta != 0 {
			out = append(out, HistorySample{
				Name: c.Name, Kind: SampleCounter, Value: float64(delta),
			})
		}
	}
	for _, g := range snap.Gauges {
		out = append(out, HistorySample{
			Name: g.Name, Kind: SampleGauge, Value: float64(g.Value),
		})
	}
	for _, h := range snap.Hists {
		if h.Count == 0 {
			continue
		}
		for _, q := range [...]struct {
			label string
			q     float64
		}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
			out = append(out, HistorySample{
				Name: h.Name, Labels: q.label, Kind: SampleQuantile,
				Value: float64(h.Quantile(q.q)),
			})
		}
		delta := h.Count - d.prevHistN[h.Name]
		d.prevHistN[h.Name] = h.Count
		if delta != 0 {
			out = append(out, HistorySample{
				Name: h.Name, Labels: "count", Kind: SampleCounter,
				Value: float64(delta),
			})
		}
	}
	for _, r := range wp.Rows {
		name := fmt.Sprintf("waitprof.%s.%s", r.Class, r.Event)
		labels := r.Op
		if r.Rel != "" {
			labels = r.Op + "/" + r.Rel
		}
		for _, c := range [...]struct {
			name string
			v    int64
		}{{name, int64(r.Waits)}, {name + ".ns", r.WaitNs}} {
			key := c.name + "\x00" + labels
			delta := c.v - d.prevWait[key]
			d.prevWait[key] = c.v
			if delta != 0 {
				out = append(out, HistorySample{
					Name: c.name, Labels: labels, Kind: SampleCounter,
					Value: float64(delta),
				})
			}
		}
	}
	return out
}
