package bench

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// TestMetaPointSmoke runs a deliberately tiny metadata storm — small
// enough to finish in a couple of seconds even under the race detector,
// where it is this package's race coverage for the concurrent meta
// workers. It checks the point is well-formed: the advertised op count
// ran and every op committed.
func TestMetaPointSmoke(t *testing.T) {
	pt, err := RunPoint(Spec{
		Workload:      WorkloadMeta,
		Goroutines:    4,
		OpsPerG:       16,
		DirsPerG:      2,
		EntriesPerDir: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Workload != WorkloadMeta {
		t.Fatalf("point is %q", pt.Workload)
	}
	if pt.Ops != 4*16 || pt.OpsPerSec <= 0 {
		t.Fatalf("ops = %d at %.1f ops/s", pt.Ops, pt.OpsPerSec)
	}
}

// TestRunClosesDatabaseWhenPrepareFails: a prepopulation error must not
// leak the database — on the write-heavy row that is a background-writer
// goroutine per failed run.
func TestRunClosesDatabaseWhenPrepareFails(t *testing.T) {
	w := workloads[2]
	if w.name != WorkloadWrite || !w.opts.BackgroundWriter {
		t.Fatalf("row 2 is %q: want the write-heavy row, which starts a background writer", w.name)
	}
	boom := errors.New("prepopulation failed")
	w.prepare = func(*core.Session, Spec) error { return boom }
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		if _, err := w.run(Spec{Workload: w.name, Goroutines: 1, OpsPerG: 1}); !errors.Is(err, boom) {
			t.Fatalf("run = %v, want the prepare error", err)
		}
	}
	// Close waits for the writer to exit, so there is nothing to wait
	// out here beyond goroutines other tests may still be winding down.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after four failed runs: the database was not closed",
				before, runtime.NumGoroutine())
		}
	}
}
