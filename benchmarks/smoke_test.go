package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// smokeSizes keeps set-up in the tens of milliseconds. cold_scan's
// files still add up to more than the pool, so its scan still misses.
var smokeSizes = sizes{baseFiles: 9, coldFiles: 4, coldFileSize: 1 << 20, txFiles: 2}

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declaredMetric `json:"end_to_end"`
	PerLayer   []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationsMatchRegistry: BENCHMARK.json and the harness list the
// same workloads and the same metrics with the same units, directions
// and bounds.
func TestDeclarationsMatchRegistry(t *testing.T) {
	d := readDeclared(t)
	if d.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the harness's default window %d", d.RunSeconds, defaultSeconds)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, d.Workloads[i].Name, w.name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, got []declaredMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range want {
			g := got[i]
			if !name.MatchString(m.name) || seen[m.name] {
				t.Errorf("%s: bad or repeated name %q", kind, m.name)
			}
			seen[m.name] = true
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match %v", kind, m.name, m.bound)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd, true)
	check("per_layer", d.PerLayer, perLayer, false)
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
	}
	for _, n := range exactCounts {
		if !known[n] {
			t.Errorf("exactCounts names %q, which is not a per-layer metric", n)
		}
	}
}

// nopConn lets a client be built without a volume: the generators only
// need descriptors to exist.
type nopConn struct{ fsConn }

func (nopConn) Open(string, bool) (int, error) { return 1, nil }

// schedule draws the first n ops of every client of a fresh generator.
func schedule(t *testing.T, w *workload, seed int64, n int) [][]op {
	t.Helper()
	out := make([][]op, nClients)
	for i := range out {
		cl, err := w.newClient(nopConn{}, &state{sz: fullSizes}, i, nClients, seed)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			out[i] = append(out[i], cl.next())
		}
	}
	return out
}

// TestScheduleIsAFunctionOfTheSeed: one seed, one op sequence per
// client; another seed, another; and the class mix is the fixed share
// the workload declares, whatever the ops cost.
func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	shares := map[string]float64{"hot_read": 1.0 / hotSideOne, "cold_scan": 1.0 / coldSideOne,
		"tx_write": 1.0 / txSideOne, "meta_query": 1.0 / metaSideOne}
	for _, w := range workloads {
		const n = 20000
		a, b, c := schedule(t, w, 7, n), schedule(t, w, 7, n), schedule(t, w, 8, n)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generators with seed 7 disagree", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same schedule", w.name)
		}
		if reflect.DeepEqual(a[0], a[1]) {
			t.Errorf("%s: both clients draw the same ops", w.name)
		}
		side := 0
		for _, o := range a[0] {
			if o.class == classSide {
				side++
			}
		}
		if got, want := float64(side)/n, shares[w.name]; math.Abs(got-want) > 0.25*want {
			t.Errorf("%s: side share %.4f, want about %.4f", w.name, got, want)
		}
	}
}

// earlySeed finds a seed whose first few ops of every client hold both
// classes, so that a very short window is sure to complete one of each
// however slow the machine running the test is.
func earlySeed(t *testing.T, w *workload) int64 {
	t.Helper()
	for seed := int64(1); seed < 10000; seed++ {
		ok := true
		for _, ops := range schedule(t, w, seed, 4) {
			var have [numClasses]bool
			for _, o := range ops {
				have[o.class] = true
			}
			ok = ok && have[classMain] && have[classSide]
		}
		if ok {
			return seed
		}
	}
	t.Fatalf("%s: no seed below 10000 starts with both op classes", w.name)
	return 0
}

func checkReport(t *testing.T, what string, defs []metricDef, values map[string]float64) {
	t.Helper()
	if len(values) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(values), len(defs))
	}
	for _, d := range defs {
		v, ok := values[d.name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", what, d.name)
		case math.IsNaN(v) || math.IsInf(v, 0) || v < 0:
			t.Errorf("%s: %s = %v", what, d.name, v)
		case d.unit == "":
			t.Errorf("%s: %s has no unit", what, d.name)
		}
	}
}

// countsOnly zeroes what legitimately differs between the wire pass and
// the in-process pass of one schedule: times, allocation, and the bytes
// only a server sees.
func countsOnly(p *passResult) passResult {
	q := *p
	q.opTime = [numClasses]time.Duration{}
	q.forceP50, q.alloc, q.wireBytes = 0, 0, 0
	for c := range q.eng {
		for op := devOp(0); op < numDevOps; op++ {
			q.eng[c][cDevNs+op] = 0
		}
	}
	return q
}

// TestProbes runs a sliver of every probe: together with the traced
// run's own metrics (TestSmoke) they are every per-layer metric, each
// once.
func TestProbes(t *testing.T) {
	values := make(map[string]float64)
	if err := runProbes(values, 0.002); err != nil {
		t.Fatal(err)
	}
	checkReport(t, "probes", layerDefs(true), values)
}

// TestSmoke runs every workload traced (which includes a 2-client
// end-to-end section) at a scale where the whole thing takes seconds:
// every declared metric but the probes comes out, once, finite; every
// output and intent check passes; no volume is left behind; and the two traced passes of
// the seed's schedule (over the wire, in-process), each on its own fresh
// volume, do exactly the same device, buffer and transaction work.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			seed := earlySeed(t, w)
			tc := tracedConfig{baseDir: dir, outDir: dir, opScale: 0.1, window: 300 * time.Millisecond, rounds: 3,
				sz: smokeSizes}
			tr, err := runTraced(w, seed, tc)
			if err != nil {
				t.Fatal(err)
			}
			if tr.checkErr != nil || tr.failed.total() != 0 {
				t.Errorf("%d failed ops, check: %v", tr.failed.total(), tr.checkErr)
			}
			checkReport(t, "traced", layerDefs(false), tr.metrics)
			checkReport(t, "end-to-end", endToEnd, tr.e2e.metrics)
			for _, d := range endToEnd {
				if tr.e2e.metrics[d.name] == 0 {
					t.Errorf("end-to-end metric %s is 0", d.name)
				}
			}

			if a, b := countsOnly(tr.wire), countsOnly(tr.local); !reflect.DeepEqual(a, b) {
				t.Errorf("two passes of one seed's schedule did different work:\nwire  %+v\nlocal %+v", a, b)
			}

			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if e.IsDir() {
					t.Errorf("volume directory %s was left behind", e.Name())
				}
			}
		})
	}
}
