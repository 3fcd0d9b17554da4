package core

import (
	"sync"
	"testing"

	"repro/internal/device"
)

// TestCommitClockSurvivesClockStepBack: a wall clock set back across a
// restart (a VM restored from a snapshot, a clock set at boot) must not
// stamp a new commit before an old one. If it did, the old version
// would be readable at no instant and the new one would not exist at
// its own commit time. The clock runs at 2,000,000 for "v1", the volume
// crashes, and it runs at 1,000,000 for "v2". Each version must read
// back at its own commit time — whether recovery finds v1's commit time
// in the log window it scans at open, or only in the checkpoint that
// moved that window past it.
func TestCommitClockSurvivesClockStepBack(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		name := "log-window"
		if checkpoint {
			name = "checkpoint"
		}
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			now := int64(2_000_000)
			clock := func() int64 {
				mu.Lock()
				defer mu.Unlock()
				now += 10
				return now
			}
			sw := device.NewSwitch()
			sw.Register(device.NewMem(nil, 0))
			db, err := Open(sw, Options{Buffers: 64, TimeSource: clock})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.NewSession("t").WriteFile("/a", []byte("v1"), CreateOpts{}); err != nil {
				t.Fatal(err)
			}
			t1 := db.Manager().LastCommitTime()
			if checkpoint {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			db.Crash()

			mu.Lock()
			now = 1_000_000
			mu.Unlock()
			db, err = db.Recover()
			if err != nil {
				t.Fatal(err)
			}
			defer db.Crash()
			s := db.NewSession("t")
			if err := s.WriteFile("/a", []byte("v2"), CreateOpts{}); err != nil {
				t.Fatal(err)
			}
			t2 := db.Manager().LastCommitTime()
			if t2 <= t1 {
				t.Fatalf("v2 committed at %d, not after v1's %d", t2, t1)
			}
			for _, v := range []struct {
				at   int64
				want string
			}{{t1, "v1"}, {t2 - 1, "v1"}, {t2, "v2"}} {
				got, err := s.ReadFileAsOf("/a", v.at)
				if err != nil || string(got) != v.want {
					t.Errorf("/a as of %d = %q, %v; want %q", v.at, got, err, v.want)
				}
			}
		})
	}
}
