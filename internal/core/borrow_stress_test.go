package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/device"
)

// stressChunk fills b with the contents version v of a chunk has: the
// version up front, then bytes that depend on the version, the chunk's
// identity and the position, so that bytes of another version, another
// chunk or another page cannot pass for it.
func stressChunk(b []byte, file, chunk int, v uint64) {
	binary.LittleEndian.PutUint64(b, v)
	seed := byte(v*31) ^ byte(file*7+chunk*3)
	for i := 8; i < len(b); i++ {
		b[i] = seed ^ byte(i) ^ byte(i>>8)
	}
}

// checkStressChunk verifies that got is the bytes [off, off+len(got))
// of one single version of the chunk, at least minV, and returns it.
func checkStressChunk(got []byte, off, file, chunk int, minV uint64, whole []byte) (uint64, error) {
	v := binary.LittleEndian.Uint64(whole)
	if v < minV {
		return v, fmt.Errorf("file %d chunk %d: read version %d after version %d was committed", file, chunk, v, minV)
	}
	seed := byte(v*31) ^ byte(file*7+chunk*3)
	for i, b := range got {
		if p := off + i; p >= 8 && b != seed^byte(p)^byte(p>>8) {
			return v, fmt.Errorf("file %d chunk %d version %d: byte %d is %#x, not its own", file, chunk, v, p, b)
		}
	}
	return v, nil
}

// TestBorrowedSlicesUnderRecycling races the borrowing read path
// against everything that can pull the bytes out from under it: readers
// (ReadAt into their buffers, and viewChunk checking the borrowed slice
// in place) against writers overwriting the same chunks, the vacuum
// cleaner compacting the pages they sit on, and a 16-frame pool that
// evicts and recycles a page on nearly every access. Every byte read
// must belong to one committed version of the chunk asked for: a
// borrowed slice that outlived its latch, or a recycled page seen
// through a stale frame, shows up as another version's or another
// chunk's bytes (and, under -race, as a data race).
func TestBorrowedSlicesUnderRecycling(t *testing.T) {
	const files, chunks = 4, 6
	writerRounds := 60
	if testing.Short() {
		writerRounds = 15
	}
	sw := device.NewSwitch()
	sw.Register(device.NewMem(nil, 0))
	db, err := Open(sw, Options{Buffers: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var committed [files][chunks]atomic.Uint64
	path := func(f int) string { return fmt.Sprintf("/f%d", f) }
	setup := db.NewSession("setup")
	for f := 0; f < files; f++ {
		data := make([]byte, chunks*ChunkSize)
		for c := 0; c < chunks; c++ {
			stressChunk(data[c*ChunkSize:(c+1)*ChunkSize], f, c, 1)
			committed[f][c].Store(1)
		}
		if err := setup.WriteFile(path(f), data, CreateOpts{}); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg, writers sync.WaitGroup
		done        atomic.Bool
		firstErr    atomic.Value
	)
	fail := func(err error) {
		firstErr.CompareAndSwap(nil, err)
		done.Store(true)
	}

	// Writers: one transaction overwrites a few chunks of one file, whole
	// (straight from the caller's buffer) or in two halves out of order
	// (through the coalescing buffer and the merge path).
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			s := db.NewSession(fmt.Sprintf("writer%d", w))
			rng := newRand(int64(w + 1))
			buf := make([]byte, ChunkSize)
			for round := 0; round < writerRounds && !done.Load(); round++ {
				f := rng.Intn(files)
				if err := s.Begin(); err != nil {
					fail(err)
					return
				}
				file, err := s.OpenWrite(path(f))
				if err != nil {
					fail(err)
					return
				}
				// The exclusive file lock is held from here to the commit,
				// so the next version of a chunk is ours to assign.
				wrote := map[int]uint64{}
				for n := 1 + rng.Intn(3); n > 0; n-- {
					c := rng.Intn(chunks)
					v := committed[f][c].Load() + 1
					stressChunk(buf, f, c, v)
					base := int64(c) * ChunkSize
					if rng.Intn(2) == 0 {
						_, err = file.WriteAt(buf, base)
					} else {
						half := ChunkSize / 2
						if _, err = file.WriteAt(buf[half:], base+int64(half)); err == nil {
							_, err = file.WriteAt(buf[:half], base)
						}
					}
					if err != nil {
						fail(err)
						return
					}
					wrote[c] = v
				}
				if err := s.Commit(); err != nil {
					fail(err)
					return
				}
				for c, v := range wrote {
					committed[f][c].Store(v)
				}
			}
		}(w)
	}

	// Readers.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := db.NewSession(fmt.Sprintf("reader%d", r))
			rng := newRand(int64(100 + r))
			buf := make([]byte, ChunkSize)
			for !done.Load() {
				f := rng.Intn(files)
				var minV [chunks]uint64
				for c := range minV {
					minV[c] = committed[f][c].Load()
				}
				file, err := s.Open(path(f))
				if err != nil {
					fail(err)
					return
				}
				for n := 4; n > 0 && err == nil; n-- {
					c := rng.Intn(chunks)
					switch rng.Intn(3) {
					case 0: // the whole chunk
						if _, err = file.ReadAt(buf, int64(c)*ChunkSize); err == nil {
							_, err = checkStressChunk(buf, 0, f, c, minV[c], buf)
						}
					case 1: // a range inside it, version taken from a second read
						off := 8 + rng.Intn(ChunkSize-8)
						part := buf[:1+rng.Intn(ChunkSize-off)]
						if _, err = file.ReadAt(part, int64(c)*ChunkSize+int64(off)); err == nil {
							var head [8]byte
							if _, err = file.ReadAt(head[:], int64(c)*ChunkSize); err == nil {
								_, err = checkStressChunk(part, off, f, c, minV[c], head[:])
							}
						}
					case 2: // the borrowed slice itself, while it is borrowed
						_, _, err = file.viewChunk(uint32(c), func(stored []byte) error {
							_, err := checkStressChunk(stored, 0, f, c, minV[c], stored)
							return err
						})
					}
				}
				if cerr := file.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					fail(fmt.Errorf("reader %d: %w", r, err))
					return
				}
			}
		}(r)
	}

	// The vacuum cleaner, back to back.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			if _, err := db.Vacuum(); err != nil {
				fail(fmt.Errorf("vacuum: %w", err))
				return
			}
			runtime.Gosched()
		}
	}()

	writers.Wait()
	done.Store(true)
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		t.Fatal(err)
	}

	// Everything settles on the last committed versions.
	buf := make([]byte, ChunkSize)
	for f := 0; f < files; f++ {
		file, err := setup.Open(path(f))
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < chunks; c++ {
			if _, err := file.ReadAt(buf, int64(c)*ChunkSize); err != nil {
				t.Fatal(err)
			}
			want := committed[f][c].Load()
			if v, err := checkStressChunk(buf, 0, f, c, want, buf); err != nil || v != want {
				t.Fatalf("file %d chunk %d settled on version %d, want %d (%v)", f, c, v, want, err)
			}
		}
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Pool().Stats(); st.Evictions < int64(writerRounds) {
		t.Fatalf("only %d evictions: the pool did not recycle", st.Evictions)
	}
	rep, err := db.Scrub()
	if err != nil || !rep.OK() {
		t.Fatalf("scrub after the stress: %v %+v", err, rep)
	}
}
