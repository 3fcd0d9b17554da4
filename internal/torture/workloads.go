package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/txn"
)

// A Workload drives a live database over a recording device and
// returns the durable outcomes it expects. Drive runs with the
// database already open and the start barrier already recorded; the
// harness crashes the database afterwards and enumerates the trace.
type Workload struct {
	Name  string
	Opts  core.Options
	Drive func(db *core.DB, rec *device.Recorder, seed int64) ([]FileExpect, error)
}

// Workloads returns the torture workloads, each stressing a different
// corner of the commit pipeline:
//
//   - "mini": two sequential small commits — small enough for
//     exhaustive enumeration of the full cartesian product.
//   - "groupcommit": concurrent committers absorbed into group-commit
//     batches (g=4, then g=8) under a commit window, the async
//     pipeline's ordering worst case.
//   - "bgwriter": background-writer churn racing commit forces, so
//     data pages reach the device from two uncoordinated paths.
//   - "checkpoint": checkpoint advancement racing commits, plus an
//     overwrite history on one shared path to exercise multi-version
//     time travel across crash states.
//   - "namespace": a mkdir/unlink storm plus four concurrent
//     directory-crossing renames. A rename deletes one naming row and
//     inserts another under one commit record; every crash state must
//     observe it atomically — content at exactly one of the two names,
//     never both, never neither once acked.
func Workloads() []Workload {
	return []Workload{
		{Name: "mini", Drive: driveMini},
		{
			Name:  "namespace",
			Opts:  core.Options{GroupCommitWindow: 2 * time.Millisecond},
			Drive: driveNamespace,
		},
		{
			Name:  "groupcommit",
			Opts:  core.Options{GroupCommitWindow: 2 * time.Millisecond},
			Drive: driveGroupCommit,
		},
		{
			Name: "bgwriter",
			Opts: core.Options{
				Buffers:          32,
				BackgroundWriter: true,
				BGWriter: buffer.BGConfig{
					HighFrac: 0.3,
					LowFrac:  0.1,
					Interval: time.Millisecond,
					MaxBatch: 8,
				},
			},
			Drive: driveBGWriter,
		},
		{Name: "checkpoint", Drive: driveCheckpoint},
	}
}

// WorkloadByName resolves a workload.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("torture: unknown workload %q", name)
}

// fileContent derives a file's deterministic content from the run seed
// and its path, so replay needs no stored RNG state beyond the seed.
func fileContent(seed int64, path string, n int) []byte {
	rng := rand.New(rand.NewSource(seed ^ int64(device.PayloadHash([]byte(path)))))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// expects collects FileExpect records as commits are acknowledged.
type expects struct {
	mu   sync.Mutex
	list []FileExpect
}

// acked records one acknowledged commit: the commit time the manager
// assigned the XID and the trace length at acknowledgement. Any crash
// index at or beyond that length includes the commit's sync barrier.
func (e *expects) acked(db *core.DB, rec *device.Recorder, xid txn.XID, path string, data []byte) {
	t := db.Manager().CommitTime(xid)
	ai := rec.Len()
	e.mu.Lock()
	e.list = append(e.list, FileExpect{Path: path, Content: data, CommitTime: t, AckIndex: ai})
	e.mu.Unlock()
}

// commitFile creates path with the given content in one transaction.
func commitFile(db *core.DB, path string, data []byte) (txn.XID, error) {
	tx, err := db.Manager().Begin()
	if err != nil {
		return txn.InvalidXID, err
	}
	f, err := db.CreateTx(tx, path, "torture", "", "", 0)
	if err != nil {
		tx.Abort()
		return txn.InvalidXID, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		tx.Abort()
		return txn.InvalidXID, err
	}
	if err := f.Close(); err != nil {
		tx.Abort()
		return txn.InvalidXID, err
	}
	return tx.ID(), tx.Commit()
}

// overwriteFile replaces path's content in one transaction.
func overwriteFile(db *core.DB, path string, data []byte) (txn.XID, error) {
	tx, err := db.Manager().Begin()
	if err != nil {
		return txn.InvalidXID, err
	}
	f, err := db.OpenTx(tx, path, true)
	if err != nil {
		tx.Abort()
		return txn.InvalidXID, err
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		tx.Abort()
		return txn.InvalidXID, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		tx.Abort()
		return txn.InvalidXID, err
	}
	if err := f.Close(); err != nil {
		tx.Abort()
		return txn.InvalidXID, err
	}
	return tx.ID(), tx.Commit()
}

// mkdirTx creates one directory in its own transaction.
func mkdirTx(db *core.DB, path string) error {
	tx, err := db.Manager().Begin()
	if err != nil {
		return err
	}
	if _, err := db.MkdirTx(tx, path, "torture"); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// renameTx moves oldPath to newPath in its own transaction.
func renameTx(db *core.DB, oldPath, newPath string) (txn.XID, error) {
	tx, err := db.Manager().Begin()
	if err != nil {
		return txn.InvalidXID, err
	}
	if err := db.RenameTx(tx, oldPath, newPath); err != nil {
		tx.Abort()
		return txn.InvalidXID, err
	}
	return tx.ID(), tx.Commit()
}

// driveNamespace: rename atomicity across directories. Six directories;
// a mkdir/unlink storm churns naming rows in several of them; then four
// files are created and concurrently renamed, each into a different
// directory, so each commit record covers a naming delete under one
// parent and an insert under another. Each rename is recorded as a move
// expect (MovedFrom), which VerifyState checks for atomicity at every
// crash state.
func driveNamespace(db *core.DB, rec *device.Recorder, seed int64) ([]FileExpect, error) {
	const dirs = 6
	for d := 0; d < dirs; d++ {
		if err := mkdirTx(db, fmt.Sprintf("/nd%d", d)); err != nil {
			return nil, err
		}
	}
	// Storm: one transaction scatters scratch files across the
	// directories, a second unlinks half of them — naming rows with
	// stamped xmax in several directories, no expected survivors to track
	// (the structural scrub still walks them on every crash state).
	tx, err := db.Manager().Begin()
	if err != nil {
		return nil, err
	}
	for d := 0; d < dirs; d++ {
		f, err := db.CreateTx(tx, fmt.Sprintf("/nd%d/scratch%d", d, d), "torture", "", "", 0)
		if err != nil {
			tx.Abort()
			return nil, err
		}
		if err := f.Close(); err != nil {
			tx.Abort()
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	tx, err = db.Manager().Begin()
	if err != nil {
		return nil, err
	}
	for d := 0; d < dirs; d += 2 {
		if err := db.UnlinkTx(tx, fmt.Sprintf("/nd%d/scratch%d", d, d)); err != nil {
			tx.Abort()
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}

	// The moves: create sequentially (so every rename has a durable
	// source), then rename concurrently under the commit window, each
	// into a different directory than its source.
	const moves = 4
	type created struct {
		oldPath, newPath string
		content          []byte
		commitTime       int64
		ackIndex         int
	}
	var cs [moves]created
	for i := 0; i < moves; i++ {
		c := &cs[i]
		c.oldPath = fmt.Sprintf("/nd%d/src%d", i, i)
		c.newPath = fmt.Sprintf("/nd%d/dst%d", (i+3)%dirs, i)
		c.content = fileContent(seed, c.oldPath, 250+i*150)
		xid, err := commitFile(db, c.oldPath, c.content)
		if err != nil {
			return nil, err
		}
		c.commitTime = db.Manager().CommitTime(xid)
		c.ackIndex = rec.Len()
	}
	ex := &expects{}
	var firstErr error
	var errMu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < moves; i++ {
		wg.Add(1)
		go func(c *created) {
			defer wg.Done()
			// Two moves touching the same directory pair in opposite
			// orders can deadlock on the directories' attribute rows;
			// the loser retries, like any client would.
			xid, err := renameTx(db, c.oldPath, c.newPath)
			for errors.Is(err, txn.ErrDeadlock) {
				xid, err = renameTx(db, c.oldPath, c.newPath)
			}
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("rename %s -> %s: %w", c.oldPath, c.newPath, err)
				}
				errMu.Unlock()
				return
			}
			t := db.Manager().CommitTime(xid)
			ai := rec.Len()
			ex.mu.Lock()
			ex.list = append(ex.list, FileExpect{
				Path:           c.newPath,
				Content:        c.content,
				CommitTime:     t,
				AckIndex:       ai,
				MovedFrom:      c.oldPath,
				FromCommitTime: c.commitTime,
				FromAckIndex:   c.ackIndex,
			})
			ex.mu.Unlock()
		}(&cs[i])
	}
	wg.Wait()
	return ex.list, firstErr
}

// driveMini: two sequential sub-chunk commits. The whole trace is a few
// dozen ops, small enough that exhaustive enumeration terminates.
func driveMini(db *core.DB, rec *device.Recorder, seed int64) ([]FileExpect, error) {
	ex := &expects{}
	for i := 0; i < 2; i++ {
		path := fmt.Sprintf("/mini-%d", i)
		data := fileContent(seed, path, 200+i*300)
		xid, err := commitFile(db, path, data)
		if err != nil {
			return nil, err
		}
		ex.acked(db, rec, xid, path, data)
	}
	return ex.list, nil
}

// driveGroupCommit: two rounds of concurrent committers (g=4, g=8)
// under a 2ms commit window, so followers ride a leader's force. Sizes
// straddle chunk boundaries: sub-chunk, multi-chunk, and partial-tail
// files all appear in every batch.
func driveGroupCommit(db *core.DB, rec *device.Recorder, seed int64) ([]FileExpect, error) {
	ex := &expects{}
	var firstErr error
	var errMu sync.Mutex
	for r, g := range []int{4, 8} {
		var wg sync.WaitGroup
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func(r, i int) {
				defer wg.Done()
				path := fmt.Sprintf("/gc-%d-%d", r, i)
				size := 700 + (i*2641)%(2*core.ChunkSize)
				data := fileContent(seed, path, size)
				xid, err := commitFile(db, path, data)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("%s: %w", path, err)
					}
					errMu.Unlock()
					return
				}
				ex.acked(db, rec, xid, path, data)
			}(r, i)
		}
		wg.Wait()
	}
	return ex.list, firstErr
}

// driveBGWriter: commits race the background writer, so data pages
// reach the device both from commit forces and from watermark flushes
// the commit never sees. Two writers, three files each, multi-chunk
// sizes to keep the dirty set above the low watermark.
func driveBGWriter(db *core.DB, rec *device.Recorder, seed int64) ([]FileExpect, error) {
	ex := &expects{}
	var firstErr error
	var errMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				path := fmt.Sprintf("/bg-%d-%d", w, i)
				size := core.ChunkSize + 500 + w*1000 + i*700
				data := fileContent(seed, path, size)
				xid, err := commitFile(db, path, data)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("%s: %w", path, err)
					}
					errMu.Unlock()
					return
				}
				ex.acked(db, rec, xid, path, data)
			}
		}(w)
	}
	wg.Wait()
	return ex.list, firstErr
}

// driveCheckpoint: checkpoints race commits, and one shared path is
// overwritten every round so crash states carry a multi-version
// history whose every acked version must stay time-travel readable.
func driveCheckpoint(db *core.DB, rec *device.Recorder, seed int64) ([]FileExpect, error) {
	ex := &expects{}
	shared := "/ckpt-shared"
	v0 := fileContent(seed, shared+"@0", 900)
	xid, err := commitFile(db, shared, v0)
	if err != nil {
		return nil, err
	}
	ex.acked(db, rec, xid, shared, v0)

	var ckptWg sync.WaitGroup
	var ckptErr error
	var errMu sync.Mutex
	for k := 1; k <= 4; k++ {
		if k%2 == 0 {
			ckptWg.Add(1)
			go func() {
				defer ckptWg.Done()
				if err := db.Checkpoint(); err != nil {
					errMu.Lock()
					if ckptErr == nil {
						ckptErr = err
					}
					errMu.Unlock()
				}
			}()
		}
		vk := fileContent(seed, fmt.Sprintf("%s@%d", shared, k), 600+k*450)
		xid, err := overwriteFile(db, shared, vk)
		if err != nil {
			return nil, err
		}
		ex.acked(db, rec, xid, shared, vk)

		path := fmt.Sprintf("/ckpt-%d", k)
		data := fileContent(seed, path, 400+k*core.ChunkSize/2)
		xid, err = commitFile(db, path, data)
		if err != nil {
			return nil, err
		}
		ex.acked(db, rec, xid, path, data)
	}
	ckptWg.Wait()
	if ckptErr != nil {
		return nil, ckptErr
	}
	// One final checkpoint so recovery starts from an advanced horizon.
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	return ex.list, nil
}
