package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
)

// commitBatching reads the group-commit pipeline's own counters from a
// point's registry: the batch-size histogram has one observation per
// batch, each observation's value the number of committers it retired.
func commitBatching(pt bench.ScalingPoint) (batches, commits, forcesSaved int64) {
	for _, h := range pt.Obs.Hists {
		if h.Name == "txn.group_commit.batch_size" {
			batches, commits = h.Count, h.SumNs
		}
	}
	for _, c := range pt.Obs.Counters {
		if c.Name == "txn.group_commit.forces_saved" {
			forcesSaved = c.Value
		}
	}
	return batches, commits, forcesSaved
}

// TestScalingFloors guards the three wall-clock scaling headlines, each a
// ≥ 2x bar over real-sleep devices (internal/bench/scaling.go): the
// second point of a row must reach twice the first point's throughput.
// One retry absorbs CI scheduler noise — two consecutive sub-2x runs
// mean a real regression, not jitter. A row's check then asserts the
// mechanism, so the bar cannot be met by accident.
//
//   - ReadMostly: the metrics registry and span charge sites sit on the
//     buffer pool and lock manager hot paths and must not drag
//     read-mostly scaling below 2x at four goroutines.
//   - ObsOverhead: the same with the wait-event sampler attached at its
//     default interval: BeginWait sites sit on the lock park, page load
//     and latch paths, and publishing a wait tag plus being sampled every
//     10ms must not cost the floor either.
//   - Commit: four committers on the sync-dominated write-heavy row must
//     double one committer, and get there by batching. Without group
//     commit every committer pays its own data flush + log force + two
//     syncs and the curve stays flat.
func TestScalingFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("real-sleep scaling benchmark")
	}
	readMostly := []bench.Spec{
		{Workload: bench.WorkloadRead, Goroutines: 1, OpsPerG: 200},
		{Workload: bench.WorkloadRead, Goroutines: 4, OpsPerG: 200},
	}
	rows := []struct {
		name    string
		specs   []bench.Spec // baseline, then the point held to the bar
		sampler bool
		check   func(t *testing.T, top bench.ScalingPoint)
	}{
		{name: "ReadMostly", specs: readMostly},
		{name: "ObsOverhead", specs: readMostly, sampler: true},
		{
			name: "Commit",
			specs: []bench.Spec{
				{Workload: bench.WorkloadWrite, Goroutines: 1, OpsPerG: 24},
				{Workload: bench.WorkloadWrite, Goroutines: 4, OpsPerG: 24},
			},
			check: func(t *testing.T, top bench.ScalingPoint) {
				batches, commits, saved := commitBatching(top)
				if batches == 0 || commits <= batches {
					t.Fatalf("no commit batching under load: %d commits in %d batches", commits, batches)
				}
				if saved <= 0 {
					t.Fatalf("group commit saved no forces (batches=%d commits=%d)", batches, commits)
				}
				t.Logf("%d commits in %d batches (mean %.2f), %d forces saved",
					commits, batches, float64(commits)/float64(batches), saved)
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.sampler {
				sampler := obs.NewWaitSampler(obs.DefaultWaitSamplingInterval, nil)
				sampler.Start()
				defer func() {
					sampler.Stop()
					if sampler.Snapshot().Rounds == 0 {
						t.Error("the wait sampler never sampled: the floor ran without it")
					}
				}()
			}
			run := func() bench.ScalingPoint {
				pts, err := bench.RunScaling(row.specs...)
				if err != nil {
					t.Fatal(err)
				}
				return pts[len(pts)-1]
			}
			top := run()
			if top.Speedup < 2.0 {
				t.Logf("speedup %.2fx < 2x, retrying once", top.Speedup)
				top = run()
			}
			if top.Speedup < 2.0 {
				t.Fatalf("speedup %.2fx, want >= 2x", top.Speedup)
			}
			if row.check != nil {
				row.check(t, top)
			}
			t.Logf("speedup %.2fx", top.Speedup)
		})
	}
}

// BenchmarkConcurrentScaling regenerates the wall-clock scaling curves
// published in EXPERIMENTS.md, one sub-benchmark per point, with
// `go test -run '^$' -bench Scaling .`: read-mostly, mixed and
// write-heavy at g = 1, 2, 4, 8, and the metadata storm at g = 1 and
// 4. Each reports ops/s, its speedup
// over the row's first point (when that point ran too), and on the
// write-heavy row the group-commit counters behind the number.
func BenchmarkConcurrentScaling(b *testing.B) {
	var curves [][]bench.Spec
	for _, wl := range []struct {
		name    string
		opsPerG int
		gs      []int
	}{
		{bench.WorkloadRead, 400, []int{1, 2, 4, 8}},
		{bench.WorkloadMixed, 400, []int{1, 2, 4, 8}},
		{bench.WorkloadWrite, 32, []int{1, 2, 4, 8}},
		{bench.WorkloadMeta, 384, []int{1, 4}},
	} {
		var curve []bench.Spec
		for _, g := range wl.gs {
			curve = append(curve, bench.Spec{Workload: wl.name, Goroutines: g, OpsPerG: wl.opsPerG})
		}
		curves = append(curves, curve)
	}
	for _, curve := range curves {
		var base float64 // the first point's ops/s
		for i, sp := range curve {
			name := fmt.Sprintf("%s/goroutines=%d", sp.Workload, sp.Goroutines)
			b.Run(name, func(b *testing.B) {
				var opsPerSec float64
				var last bench.ScalingPoint
				for n := 0; n < b.N; n++ {
					pt, err := bench.RunPoint(sp)
					if err != nil {
						b.Fatal(err)
					}
					opsPerSec += pt.OpsPerSec
					last = pt
				}
				opsPerSec /= float64(b.N)
				b.ReportMetric(opsPerSec, "ops/s")
				if i == 0 {
					base = opsPerSec
				}
				if base > 0 {
					b.ReportMetric(opsPerSec/base, "speedup")
				}
				if sp.Workload == bench.WorkloadWrite {
					batches, commits, saved := commitBatching(last)
					if batches > 0 {
						b.ReportMetric(float64(commits)/float64(batches), "commits/batch")
					}
					b.ReportMetric(float64(saved), "forces-saved")
				}
			})
		}
	}
}
