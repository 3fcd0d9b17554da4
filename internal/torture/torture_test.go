package torture

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/txn"
)

// -torture.full (or TORTURE_FULL=1) removes the smoke caps: more
// samples, higher state ceilings, exhaustive passes where feasible.
// CI's torture-smoke job runs the default; the full walk is for
// dedicated soak runs.
var tortureFull = flag.Bool("torture.full", false,
	"run the full (slow) crash-state enumeration instead of the smoke sample")

func fullMode() bool { return *tortureFull || os.Getenv("TORTURE_FULL") != "" }

// smokeCfg scales a run to the mode: seeded smoke sample by default,
// the heavy walk under -torture.full.
func smokeCfg(t *testing.T, workload string) RunConfig {
	cfg := RunConfig{
		Workload:  workload,
		Seed:      42,
		Samples:   96,
		MaxStates: 900,
		// Honour TORTURE_OUT (CI uploads that directory as the repro
		// artifact on failure); fall back to the test's temp dir.
		OutDir: os.Getenv("TORTURE_OUT"),
		Logf:   t.Logf,
	}
	if cfg.OutDir == "" {
		cfg.OutDir = t.TempDir()
	}
	if fullMode() {
		cfg.Samples = 512
		cfg.MaxStates = 20000
		cfg.Exhaustive = true
	}
	return cfg
}

func mustRun(t *testing.T, cfg RunConfig) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", cfg.Workload, err)
	}
	return res
}

func assertClean(t *testing.T, res *Result) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("%s: crash state %s violates invariants: %v", res.Workload, v.State, v.Err)
	}
	if res.Stats.Visited == 0 {
		t.Fatalf("%s: enumeration visited no states", res.Workload)
	}
	if res.Stats.Visited <= res.Stats.CrashPoints-1 && !res.Stats.Capped {
		t.Errorf("%s: visited %d states over %d crash points — reorderings not enumerated?",
			res.Workload, res.Stats.Visited, res.Stats.CrashPoints)
	}
}

func TestTortureGroupCommit(t *testing.T) {
	assertClean(t, mustRun(t, smokeCfg(t, "groupcommit")))
}

func TestTortureBGWriter(t *testing.T) {
	assertClean(t, mustRun(t, smokeCfg(t, "bgwriter")))
}

func TestTortureCheckpoint(t *testing.T) {
	assertClean(t, mustRun(t, smokeCfg(t, "checkpoint")))
}

// TestTortureNamespace enumerates crash states of the namespace
// workload: four concurrent directory-crossing renames, each verified
// for atomicity (content at exactly one of the two names at every crash
// state), plus the mkdir/unlink storm the structural scrub walks. It
// also checks that the trace wrote the naming relation and recorded
// every rename as a move expect — otherwise the run proves nothing.
func TestTortureNamespace(t *testing.T) {
	assertClean(t, mustRun(t, smokeCfg(t, "namespace")))

	ops, _, exps, err := RecordTrace("namespace", 42, BreakNone)
	if err != nil {
		t.Fatal(err)
	}
	rels := map[device.OID]bool{}
	for _, op := range ops {
		if op.Kind == device.RecWrite {
			rels[op.Rel] = true
		}
	}
	if !rels[core.NamingRel] {
		t.Fatalf("namespace trace never wrote the naming relation: %v", rels)
	}
	moves := 0
	for _, e := range exps {
		if e.MovedFrom != "" {
			moves++
		}
	}
	if moves != 4 {
		t.Fatalf("namespace workload recorded %d move expects, want 4", moves)
	}
	t.Logf("namespace trace: %d ops, %d relations written, %d move expects",
		len(ops), len(rels), moves)
}

// TestTortureExhaustiveMini runs the full cartesian product over the
// two-commit trace: every crash prefix and every legal per-page
// write-survival combination, deduplicated by image signature. All of
// them must verify.
func TestTortureExhaustiveMini(t *testing.T) {
	cfg := smokeCfg(t, "mini")
	cfg.Exhaustive = true
	cfg.MaxStates = 6000
	res := mustRun(t, cfg)
	assertClean(t, res)
	if res.Stats.Generated <= res.Stats.CrashPoints {
		t.Errorf("exhaustive mini generated only %d states over %d crash points — no reorderings walked",
			res.Stats.Generated, res.Stats.CrashPoints)
	}
	t.Logf("mini exhaustive: %+v", res.Stats)
}

// TestTortureDetectsNoFlush is the harness's own detector self-test: a
// commit pipeline whose ForceData does nothing must be caught. With no
// flush, acked data never reaches the device, so even the pure
// end-of-trace prefix loses committed files.
func TestTortureDetectsNoFlush(t *testing.T) {
	cfg := smokeCfg(t, "mini")
	cfg.Break = BreakNoFlush
	res := mustRun(t, cfg)
	if len(res.Violations) == 0 {
		t.Fatalf("noflush pipeline not detected: %+v", res.Stats)
	}
	if len(res.Bundles) == 0 {
		t.Fatalf("violations found but no repro bundle written")
	}
	t.Logf("noflush detected: %d violations, first: %v", len(res.Violations), res.Violations[0].Err)
}

// TestTortureDetectsNoSync: a pipeline that flushes data but skips the
// sync barrier leaves the data writes in the open window all the way
// to the log force. Enumeration must reach a state where the commit
// record landed and a data page did not — the torn commit the barrier
// exists to prevent.
func TestTortureDetectsNoSync(t *testing.T) {
	cfg := smokeCfg(t, "mini")
	cfg.Break = BreakNoSync
	cfg.Exhaustive = true
	cfg.MaxStates = 6000
	res := mustRun(t, cfg)
	if len(res.Violations) == 0 {
		t.Fatalf("nosync pipeline not detected: %+v", res.Stats)
	}
	t.Logf("nosync detected: %d violations, first: %v", len(res.Violations), res.Violations[0].Err)
}

// TestBundleReplay proves the repro bundle is self-contained and
// byte-deterministic: replaying a violation bundle reproduces the
// identical violation, twice. The bundle goes to a directory that does
// not exist yet, which the harness must create rather than lose the
// repro.
func TestBundleReplay(t *testing.T) {
	cfg := smokeCfg(t, "mini")
	cfg.Break = BreakNoFlush
	cfg.MaxViolations = 1
	cfg.OutDir = filepath.Join(t.TempDir(), "missing", "dir")
	res := mustRun(t, cfg)
	if len(res.Bundles) == 0 || filepath.Dir(res.Bundles[0]) != cfg.OutDir {
		t.Fatalf("bundles %v, want one in %s", res.Bundles, cfg.OutDir)
	}
	first := Replay(res.Bundles[0])
	if first == nil {
		t.Fatalf("replay of failing bundle verified clean")
	}
	second := Replay(res.Bundles[0])
	if second == nil || first.Error() != second.Error() {
		t.Fatalf("replay not deterministic:\n first: %v\nsecond: %v", first, second)
	}
	if !strings.Contains(first.Error(), res.Violations[0].Err.Error()) &&
		first.Error() != res.Violations[0].Err.Error() {
		t.Logf("note: replay violation %q vs live violation %q", first, res.Violations[0].Err)
	}
}

// TestBundleRoundTrip checks serialisation alone: ops, state, and
// expectations survive a write/read cycle bit-for-bit.
func TestBundleRoundTrip(t *testing.T) {
	ops, start, exps, err := RecordTrace("mini", 7, BreakNone)
	if err != nil {
		t.Fatal(err)
	}
	b := &Bundle{
		Workload: "mini",
		Seed:     7,
		Ops:      ops,
		State:    State{CrashIndex: start + 1, Choices: []PageChoice{{Rel: 3, Page: 0, Choice: 1}}},
		Exps:     exps,
	}
	path := filepath.Join(t.TempDir(), "rt.repro")
	if err := WriteBundle(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != len(b.Ops) || got.State.CrashIndex != b.State.CrashIndex ||
		len(got.Exps) != len(b.Exps) || got.State.Choices[0] != b.State.Choices[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range got.Ops {
		if got.Ops[i].Kind != b.Ops[i].Kind || got.Ops[i].Hash != b.Ops[i].Hash {
			t.Fatalf("op %d mismatch after round trip", i)
		}
	}
}

// TestCrashDuringRecovery injects faults into recovery itself: reads
// (the log/page loads recovery performs) and writes (the zero-time
// repair force). Whatever the first recovery manages before dying, the
// second recovery over the healed device must converge and satisfy
// every invariant.
func TestCrashDuringRecovery(t *testing.T) {
	ops, _, exps, err := RecordTrace("mini", 42, BreakNone)
	if err != nil {
		t.Fatal(err)
	}

	// Crash state: the full trace — recovery reads the whole log.
	full := State{CrashIndex: len(ops)}
	anyTripped := false
	maxN := uint64(24)
	if fullMode() {
		maxN = 200
	}
	for n := uint64(1); n <= maxN; n++ {
		tripped, err := CrashDuringRecovery(ops, full, exps, device.FaultRead, n)
		if err != nil {
			t.Fatalf("read-fault at op %d: %v", n, err)
		}
		anyTripped = anyTripped || tripped
	}
	if !anyTripped {
		t.Fatalf("no read fault ever tripped — recovery performs no reads?")
	}

	// Crash state: the commit record's window torn so the commit time
	// page was lost — recovery must repair (a write), and a crash on
	// that very repair write must still converge on the second pass.
	lastSync := -1
	for i, op := range ops {
		if op.Kind == device.RecSync {
			lastSync = i
		}
	}
	if lastSync < 0 {
		t.Fatalf("trace has no sync barrier")
	}
	torn := State{
		CrashIndex: lastSync,
		Choices:    []PageChoice{{Rel: device.OID(2), Page: 0, Choice: 0}},
	}
	for n := uint64(1); n <= 4; n++ {
		tripped, err := CrashDuringRecovery(ops, torn, exps, device.FaultWrite, n)
		if err != nil {
			t.Fatalf("write-fault at op %d over torn-time state: %v", n, err)
		}
		_ = tripped
	}
}

// TestBootstrapDurableAtOpen is the regression test for the second bug
// the harness surfaced: bootstrap wrote the root directory through the
// buffer pool but never flushed or synced it, so a crash after Open
// returned could persist the bootstrap commit record while losing the
// root directory's rows — recovery then had to silently re-bootstrap,
// and any partially-landed bootstrap page produced a half-built
// namespace. Open must leave a fully durable image: recovering a
// crash-at-open image performs no data writes (recovery is read-only
// outside log repair) and finds the root directory intact.
func TestBootstrapDurableAtOpen(t *testing.T) {
	rec := device.NewRecorder(device.NewMem(nil, 0))
	sw := device.NewSwitch()
	sw.Register(rec)
	db, err := core.Open(sw, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Crash()
	ops := rec.Trace()

	img := Materialize(ops, State{CrashIndex: len(ops)})
	rec2 := device.NewRecorder(img)
	sw2 := device.NewSwitch()
	sw2.Register(rec2)
	db2, err := core.Open(sw2, core.Options{})
	if err != nil {
		t.Fatalf("recovery of a crashed-at-open image failed: %v", err)
	}
	defer db2.Crash()
	for _, op := range rec2.Trace() {
		if op.Kind == device.RecWrite && op.Rel != txn.StatusLogRel && op.Rel != txn.TimeLogRel {
			t.Fatalf("recovery re-wrote rel %d page %d: bootstrap was not durable when Open returned",
				op.Rel, op.Page)
		}
	}
	sess := db2.NewSession("torture")
	if _, err := sess.ReadDir("/"); err != nil {
		t.Fatalf("root directory after crash-at-open recovery: %v", err)
	}
}

// TestTortureCountersInObs: a recording run surfaces its traffic in
// the database's metrics registry — the same registry /metrics serves —
// so torture and fault-injection activity is observable like any other
// subsystem.
func TestTortureCountersInObs(t *testing.T) {
	rec := device.NewRecorder(device.NewMem(nil, 0))
	sw := device.NewSwitch()
	sw.Register(rec)
	db, err := core.Open(sw, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Crash()
	rec.SetObs(db.Obs())
	faulty := device.NewFaulty(device.NewMem(nil, 0), 1)
	faulty.SetObs(db.Obs())
	faulty.FailNth(device.FaultRead, 1, nil)
	if err := faulty.ReadPage(device.OID(99), 0, make([]byte, device.PageSize)); err == nil {
		t.Fatal("armed fault did not fire")
	}

	if _, err := commitFile(db, "/obs", []byte("observed")); err != nil {
		t.Fatal(err)
	}
	snap := db.Obs().Snapshot()
	want := map[string]bool{
		"torture.recorded_writes": false,
		"torture.recorded_syncs":  false,
		"device.faults_injected":  false,
	}
	for _, c := range snap.Counters {
		if _, ok := want[c.Name]; ok && c.Value > 0 {
			want[c.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("counter %s missing or zero in registry snapshot", name)
		}
	}
}

// TestMiniTraceShape sanity-checks the recorder itself: the mini
// workload's trace must contain both writes and sync barriers, or
// everything above is enumerating an empty space.
func TestMiniTraceShape(t *testing.T) {
	ops, _, _, err := RecordTrace("mini", 1, BreakNone)
	if err != nil {
		t.Fatal(err)
	}
	writes, syncs := 0, 0
	for _, op := range ops {
		switch op.Kind {
		case device.RecWrite:
			writes++
		case device.RecSync:
			syncs++
		}
	}
	if writes == 0 || syncs == 0 {
		t.Fatalf("mini trace has writes=%d syncs=%d", writes, syncs)
	}
}
