package btree

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// seedTreeImage is the SHA-256 of every page of the tree the workload
// below builds, as the node-image code of the seed (read image, change,
// zero page, rewrite) left them. Operating on nodes in place must
// produce the same bytes: vacated tails zeroed, splits at the same
// entry, pages allocated in the same order.
const seedTreeImage = "d765950323efce2d26b71951e876110ca6231804e4131cb065b07fc746300aba"

func TestNodeImagesMatchSeedFormat(t *testing.T) {
	tr := newTree(t, 64)
	r := rand.New(rand.NewSource(14))
	var live []Entry
	for i := 0; i < 130000; i++ {
		// Ascending runs force right-edge splits, the random rest splits
		// everywhere; one in eight operations deletes.
		e := Entry{Key: Key{K1: uint64(r.Intn(5000)), K2: uint64(r.Intn(50))}, Val: uint64(r.Intn(4))}
		if i%3 == 0 {
			e = Entry{Key: Key{K1: 1 << 40, K2: uint64(i)}, Val: uint64(i)}
		}
		if i%8 == 7 && len(live) > 0 {
			j := r.Intn(len(live))
			if err := tr.Delete(live[j]); err != nil {
				t.Fatal(err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		added, err := tr.Insert(e)
		if err != nil {
			t.Fatal(err)
		}
		if added {
			live = append(live, e)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	n, err := tr.pool.NPages(tr.rel)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	levels := map[byte]int{}
	for pn := uint32(0); pn < n; pn++ {
		f, err := tr.pool.Get(tr.rel, pn)
		if err != nil {
			t.Fatal(err)
		}
		f.RLock()
		h.Write(f.Data)
		if pn > 0 {
			levels[f.Data[0]]++
		}
		f.RUnlock()
		tr.pool.Release(f, false)
	}
	if levels[kindInternal] < 3 {
		t.Fatalf("workload built %d internal nodes; it must split one", levels[kindInternal])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != seedTreeImage {
		t.Fatalf("tree image %s, seed format gives %s", got, seedTreeImage)
	}
}
