package bench

import (
	"fmt"
	"testing"
	"time"
)

// smallFile keeps unit tests quick; EXPERIMENTS.md uses the full 25 MB.
const smallFile = 4 * MB

func runCfg(t *testing.T, cfg Config) map[string]time.Duration {
	t.Helper()
	sys, err := BuildSystem(cfg, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	times, err := RunOps(sys, smallFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range AllOps {
		if times[op] <= 0 {
			t.Fatalf("%s: op %s has no cost", cfg, op)
		}
	}
	return times
}

func TestAllConfigsRun(t *testing.T) {
	for _, cfg := range []Config{ConfigInvCS, ConfigNFS, ConfigInvSP, ConfigNFSNoPrest, ConfigLocalFS} {
		cfg := cfg
		t.Run(string(cfg), func(t *testing.T) {
			t.Parallel()
			runCfg(t, cfg)
		})
	}
}

func TestShapeInversionVsNFS(t *testing.T) {
	inv := runCfg(t, ConfigInvCS)
	nfs := runCfg(t, ConfigNFS)
	sp := runCfg(t, ConfigInvSP)

	// Figure 3 shape: Inversion creation markedly slower than NFS.
	if inv[OpCreate] <= nfs[OpCreate] {
		t.Errorf("create: inversion (%v) should be slower than NFS (%v)", inv[OpCreate], nfs[OpCreate])
	}
	// Figure 6 shape: NFS+NVRAM wins writes.
	for _, op := range []string{OpWriteSeq, OpWriteRandom, OpWriteSingle} {
		if inv[op] <= nfs[op] {
			t.Errorf("%s: inversion (%v) should be slower than NFS+NVRAM (%v)", op, inv[op], nfs[op])
		}
	}
	// Single-process beats client/server everywhere (no network).
	for _, op := range AllOps {
		if sp[op] >= inv[op] {
			t.Errorf("%s: single process (%v) should beat client/server (%v)", op, sp[op], inv[op])
		}
	}
	// Table 3 shape: single-process Inversion beats even NFS on reads.
	for _, op := range []string{OpReadSingle, OpReadSeq, OpReadRandom} {
		if sp[op] >= nfs[op] {
			t.Errorf("%s: single process (%v) should beat remote NFS (%v)", op, sp[op], nfs[op])
		}
	}
	// Table 3 exception: NFS+NVRAM wins random writes even against the
	// single-process configuration ("the important exception is in
	// random write time").
	if sp[OpWriteRandom] <= nfs[OpWriteRandom] {
		t.Errorf("random write: NFS+NVRAM (%v) should beat single process (%v)",
			nfs[OpWriteRandom], sp[OpWriteRandom])
	}
}

func TestNVRAMMattersForWrites(t *testing.T) {
	with := runCfg(t, ConfigNFS)
	without := runCfg(t, ConfigNFSNoPrest)
	if with[OpWriteRandom] >= without[OpWriteRandom] {
		t.Errorf("NVRAM did not help random writes: %v vs %v",
			with[OpWriteRandom], without[OpWriteRandom])
	}
	// And random writes fitting NVRAM show (almost) no degradation over
	// sequential.
	ratio := with[OpWriteRandom].Seconds() / with[OpWriteSeq].Seconds()
	if ratio > 1.2 {
		t.Errorf("NFS random/seq write ratio %.2f, paper shows ~1.0", ratio)
	}
}

func TestLocalComparisonShape(t *testing.T) {
	// [STON93]: local Inversion gets >90%% of the native FS on large
	// sequential transfers and ~70%% on small random transfers. Allow a
	// generous band: sequential ratio must beat random ratio, and both
	// must be within sane bounds.
	sp := runCfg(t, ConfigInvSP)
	local := runCfg(t, ConfigLocalFS)
	seqRatio := local[OpReadSingle].Seconds() / sp[OpReadSingle].Seconds()
	rndRatio := local[OpReadRandom].Seconds() / sp[OpReadRandom].Seconds()
	if seqRatio < rndRatio {
		t.Errorf("sequential ratio (%.2f) should exceed random ratio (%.2f)", seqRatio, rndRatio)
	}
	if seqRatio < 0.5 || seqRatio > 1.05 {
		t.Errorf("sequential local/inversion ratio %.2f out of band", seqRatio)
	}
}

func TestRecoveryBeatsForcedFsck(t *testing.T) {
	res, err := AblateRecovery(DefaultParams(), 10, 4*MB)
	if err != nil {
		t.Fatal(err)
	}
	// "File system recovery is essentially instantaneous": at least an
	// order of magnitude faster than scanning the data.
	if res.SpeedupFactor < 10 {
		t.Fatalf("recovery %.4fs vs fsck %.2fs — only %.1fx",
			res.RecoveryTime.Seconds(), res.FsckTime.Seconds(), res.SpeedupFactor)
	}
	if res.PagesOnDisk == 0 {
		t.Fatal("fsck scanned nothing")
	}
}

func TestRunReport(t *testing.T) {
	rep, err := Run(DefaultParams(), smallFile, []Config{ConfigInvSP, ConfigNFS})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Seconds) != 2 {
		t.Fatalf("report has %d configs", len(rep.Seconds))
	}
	for cfg, row := range rep.Seconds {
		for _, op := range AllOps {
			if row[op] <= 0 {
				t.Fatalf("%s %s missing", cfg, op)
			}
		}
	}
}

func TestRunnerSingleOps(t *testing.T) {
	r, err := NewRunner(ConfigInvSP, DefaultParams(), smallFile)
	if err != nil {
		t.Fatal(err)
	}
	// Two creates land in distinct files; later ops share the bench file.
	d1, err := r.RunOp(OpCreate)
	if err != nil || d1 <= 0 {
		t.Fatalf("create 1: %v %v", d1, err)
	}
	d2, err := r.RunOp(OpCreate)
	if err != nil || d2 <= 0 {
		t.Fatalf("create 2: %v %v", d2, err)
	}
	for _, op := range []string{OpReadByte, OpWriteSeq} {
		d, err := r.RunOp(op)
		if err != nil || d <= 0 {
			t.Fatalf("%s: %v %v", op, d, err)
		}
	}
	if _, err := r.RunOp("no-such-op"); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestAblateCacheSize(t *testing.T) {
	res, err := AblateCacheSize(DefaultParams(), smallFile)
	if err != nil {
		t.Fatal(err)
	}
	// The larger cache must not be slower on the random-read test.
	if res.Large[OpReadRandom] > res.Small[OpReadRandom] {
		t.Fatalf("300 buffers (%v) slower than 64 (%v)",
			res.Large[OpReadRandom], res.Small[OpReadRandom])
	}
}

// TestTable3Golden pins the standing invariant every PR is held to:
// the client/server column of Table 3 at the paper's 25 MB, to the
// digit invbench prints. The virtual clock makes it exact, so a change
// to the data path's page-access sequence that the functional tests
// cannot see (a cached B-tree root was one) shows here.
func TestTable3Golden(t *testing.T) {
	want := []string{"140.66", "2.47", "4.81", "6.13", "3.39", "5.73", "8.16", "0.05", "0.10"}
	rep, err := Run(DefaultParams(), 25*MB, []Config{ConfigInvCS})
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range AllOps {
		if got := fmt.Sprintf("%.2f", rep.Seconds[ConfigInvCS][op]); got != want[i] {
			t.Errorf("%s: %s s, want %s", OpLabel(op), got, want[i])
		}
	}
}
