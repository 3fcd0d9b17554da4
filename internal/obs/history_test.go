package obs

import "testing"

func sampleByName(t *testing.T, samples []HistorySample, name, labels string) (HistorySample, bool) {
	t.Helper()
	for _, s := range samples {
		if s.Name == name && s.Labels == labels {
			return s, true
		}
	}
	return HistorySample{}, false
}

func TestHistoryDifferCountersAsDeltas(t *testing.T) {
	reg := NewRegistry()
	d := NewHistoryDiffer()

	reg.Counter("a").Add(5)
	out := d.Diff(reg.Snapshot(), WaitProfile{})
	s, ok := sampleByName(t, out, "a", "")
	if !ok || s.Kind != SampleCounter || s.Value != 5 {
		t.Fatalf("first tick: got %+v ok=%v, want counter delta 5", s, ok)
	}

	// Unchanged counter → no sample on the next tick.
	out = d.Diff(reg.Snapshot(), WaitProfile{})
	if _, ok := sampleByName(t, out, "a", ""); ok {
		t.Fatalf("unchanged counter re-recorded: %+v", out)
	}

	reg.Counter("a").Add(3)
	out = d.Diff(reg.Snapshot(), WaitProfile{})
	if s, ok := sampleByName(t, out, "a", ""); !ok || s.Value != 3 {
		t.Fatalf("third tick: got %+v ok=%v, want delta 3", s, ok)
	}
}

func TestHistoryDifferGaugesAsPoints(t *testing.T) {
	reg := NewRegistry()
	d := NewHistoryDiffer()
	reg.GaugeFunc("g", func() int64 { return 7 })

	for tick := 0; tick < 2; tick++ {
		out := d.Diff(reg.Snapshot(), WaitProfile{})
		s, ok := sampleByName(t, out, "g", "")
		if !ok || s.Kind != SampleGauge || s.Value != 7 {
			t.Fatalf("tick %d: got %+v ok=%v, want gauge point 7", tick, s, ok)
		}
	}
}

func TestHistoryDifferHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	d := NewHistoryDiffer()

	// Empty histogram: skipped entirely.
	reg.Histogram("h")
	out := d.Diff(reg.Snapshot(), WaitProfile{})
	if _, ok := sampleByName(t, out, "h", "p50"); ok {
		t.Fatal("empty histogram recorded quantiles")
	}

	for i := 0; i < 100; i++ {
		reg.Histogram("h").Observe(int64(50_000))
	}
	out = d.Diff(reg.Snapshot(), WaitProfile{})
	for _, label := range []string{"p50", "p95", "p99"} {
		s, ok := sampleByName(t, out, "h", label)
		if !ok || s.Kind != SampleQuantile || s.Value <= 0 {
			t.Fatalf("%s: got %+v ok=%v", label, s, ok)
		}
	}
	if s, ok := sampleByName(t, out, "h", "count"); !ok || s.Kind != SampleCounter || s.Value != 100 {
		t.Fatalf("count delta: got %+v ok=%v, want 100", s, ok)
	}

	// No new observations → quantiles still recorded (points), count
	// delta skipped.
	out = d.Diff(reg.Snapshot(), WaitProfile{})
	if _, ok := sampleByName(t, out, "h", "p95"); !ok {
		t.Fatal("quantile point missing on idle tick")
	}
	if _, ok := sampleByName(t, out, "h", "count"); ok {
		t.Fatal("zero count delta recorded")
	}
}

func TestHistoryDifferWaitRows(t *testing.T) {
	d := NewHistoryDiffer()
	wp := WaitProfile{Rows: []WaitProfileRow{
		{Class: "IO", Event: "log_force", Op: "commit", Rel: "inv1", Samples: 4},
	}}
	out := d.Diff(Snapshot{}, wp)
	s, ok := sampleByName(t, out, "waitprof.IO.log_force", "commit/inv1")
	if !ok || s.Kind != SampleCounter || s.Value != 4 {
		t.Fatalf("wait row: got %+v ok=%v, want delta 4", s, ok)
	}

	wp.Rows[0].Samples = 9
	out = d.Diff(Snapshot{}, wp)
	if s, _ := sampleByName(t, out, "waitprof.IO.log_force", "commit/inv1"); s.Value != 5 {
		t.Fatalf("wait delta: got %v, want 5", s.Value)
	}

	// Unchanged profile → no sample.
	out = d.Diff(Snapshot{}, wp)
	if _, ok := sampleByName(t, out, "waitprof.IO.log_force", "commit/inv1"); ok {
		t.Fatal("unchanged wait row re-recorded")
	}
}
