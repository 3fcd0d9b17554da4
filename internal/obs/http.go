package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
)

// writeJSON renders v indented with the JSON content type.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// TraceByID stitches every span of one trace (32-hex id) out of the
// flight recorder, oldest-first. The flight ring sees every finished
// request — unlike the slowest-N trace ring — so a multi-op
// transaction's begin/op/commit spans all appear as long as they are
// recent enough to still be in the ring.
func TraceByID(id string) []SpanData {
	spans := []SpanData{}
	for _, ev := range Flight().Events() {
		if ev.Kind == "span" && ev.Span != nil && ev.Span.TraceID == id {
			spans = append(spans, *ev.Span)
		}
	}
	sort.SliceStable(spans, func(i, j int) bool {
		return spans[i].StartUnixNs < spans[j].StartUnixNs
	})
	return spans
}

// Handler serves the operational endpoint behind `invd -metrics-addr`:
//
//	/metrics        Prometheus text exposition of the registry
//	/debug/pprof/*  the standard Go profiles
//	/traces/recent  slowest recent requests: {"cursor": N, "spans": [...]}
//	                with optional ?op=, ?min_ms=, and ?after=<cursor>
//	                filters so scrapers can tail without re-reading
//	/traces/by-id   ?id=<32-hex trace id>: every span of one trace,
//	                stitched from the flight recorder, oldest-first
//	/debug/flight   the flight-recorder bundle, dumped on demand
//
// ring may be nil (404 for traces).
func Handler(reg *Registry, ring *TraceRing) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeProm(w, reg.Snapshot())
	})
	mux.HandleFunc("/traces/recent", func(w http.ResponseWriter, r *http.Request) {
		if ring == nil {
			http.NotFound(w, r)
			return
		}
		q := r.URL.Query()
		var minNs int64
		if v := q.Get("min_ms"); v != "" {
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil {
				http.Error(w, "bad min_ms: "+err.Error(), http.StatusBadRequest)
				return
			}
			minNs = int64(ms * 1e6)
		}
		var after uint64
		if v := q.Get("after"); v != "" {
			var err error
			after, err = strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "bad after: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		op := q.Get("op")
		spans := []SpanData{}
		for _, d := range ring.Slowest() {
			if op != "" && d.Op != op {
				continue
			}
			if d.WallNs < minNs {
				continue
			}
			if d.Seq <= after {
				continue
			}
			spans = append(spans, d)
		}
		writeJSON(w, struct {
			Cursor uint64     `json:"cursor"`
			Spans  []SpanData `json:"spans"`
		}{ring.Cursor(), spans})
	})
	mux.HandleFunc("/traces/by-id", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		if id == "" {
			http.Error(w, "missing id (32-hex trace id)", http.StatusBadRequest)
			return
		}
		spans := TraceByID(id)
		writeJSON(w, struct {
			TraceID string     `json:"trace_id"`
			Spans   []SpanData `json:"spans"`
		}{id, spans})
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		Flight().WriteBundle(w, "http", nil)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// promName maps a registry name ("buffer.shard03.hit_ns") to a valid
// Prometheus metric name ("inv_buffer_shard03_hit_ns").
func promName(name string) string {
	var b strings.Builder
	b.WriteString("inv_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// writeProm renders a snapshot in the Prometheus text exposition
// format. Histograms use the cumulative-bucket convention with an le
// label, so standard histogram_quantile() queries work.
func writeProm(w interface{ Write([]byte) (int, error) }, s Snapshot) {
	for _, c := range s.Counters {
		n := promName(c.Name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, c.Value)
	}
	for _, g := range s.Gauges {
		n := promName(g.Name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, g.Value)
	}
	for _, h := range s.Hists {
		n := promName(strings.TrimSuffix(h.Name, "_ns"))
		fmt.Fprintf(w, "# TYPE %s_seconds histogram\n", n)
		var cum int64
		for i, bn := range h.Buckets {
			cum += bn
			fmt.Fprintf(w, "%s_seconds_bucket{le=\"%g\"} %d\n",
				n, float64(Bound(i))/1e9, cum)
		}
		fmt.Fprintf(w, "%s_seconds_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(w, "%s_seconds_sum %g\n", n, float64(h.SumNs)/1e9)
		fmt.Fprintf(w, "%s_seconds_count %d\n", n, h.Count)
	}
}
