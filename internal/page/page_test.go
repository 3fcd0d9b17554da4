package page

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func newPage(t *testing.T) Page {
	t.Helper()
	p := make(Page, Size)
	Init(p, 42, 7)
	return p
}

func TestInitAndIdent(t *testing.T) {
	p := newPage(t)
	if !p.Initialized() {
		t.Fatal("page not initialized after Init")
	}
	if p.Rel() != 42 || p.Block() != 7 {
		t.Fatalf("ident = (%d,%d), want (42,7)", p.Rel(), p.Block())
	}
	if p.NumSlots() != 0 {
		t.Fatalf("fresh page has %d slots", p.NumSlots())
	}
	p.SetIdent(9, 10)
	if p.Rel() != 9 || p.Block() != 10 {
		t.Fatalf("SetIdent: got (%d,%d)", p.Rel(), p.Block())
	}
}

func TestZeroPageNotInitialized(t *testing.T) {
	p := make(Page, Size)
	if p.Initialized() {
		t.Fatal("zero page reads as initialized")
	}
}

func TestInsertAndItem(t *testing.T) {
	p := newPage(t)
	a := p.Insert([]byte("hello"))
	b := p.Insert([]byte("world!"))
	if a < 0 || b < 0 || a == b {
		t.Fatalf("slots: %d, %d", a, b)
	}
	if got := p.Item(a); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Item(a) = %q", got)
	}
	if got := p.Item(b); !bytes.Equal(got, []byte("world!")) {
		t.Fatalf("Item(b) = %q", got)
	}
}

func TestItemAliasing(t *testing.T) {
	p := newPage(t)
	s := p.Insert([]byte{1, 2, 3, 4})
	item := p.Item(s)
	item[0] = 99
	if got := p.Item(s); got[0] != 99 {
		t.Fatal("Item is not aliased into the page")
	}
}

func TestInsertRejectsBadSizes(t *testing.T) {
	p := newPage(t)
	if s := p.Insert(nil); s >= 0 {
		t.Fatal("inserted empty item")
	}
	if s := p.Insert(make([]byte, MaxItem+1)); s >= 0 {
		t.Fatal("inserted oversized item")
	}
	if s := p.Insert(make([]byte, MaxItem)); s < 0 {
		t.Fatal("rejected exactly-max item")
	}
}

func TestDeleteAndSlotReuse(t *testing.T) {
	p := newPage(t)
	a := p.Insert([]byte("aaaa"))
	p.Insert([]byte("bbbb"))
	p.Delete(a)
	if p.Item(a) != nil {
		t.Fatal("deleted slot still returns item")
	}
	c := p.Insert([]byte("cccc"))
	if c != a {
		t.Fatalf("dead slot not reused: got %d want %d", c, a)
	}
	if p.NumSlots() != 2 {
		t.Fatalf("slot count grew to %d", p.NumSlots())
	}
}

func TestDeleteOutOfRangeNoop(t *testing.T) {
	p := newPage(t)
	p.Delete(-1)
	p.Delete(5)
	if p.NumSlots() != 0 {
		t.Fatal("out-of-range delete changed page")
	}
}

func TestFillUntilFull(t *testing.T) {
	p := newPage(t)
	item := make([]byte, 100)
	n := 0
	for {
		if s := p.Insert(item); s < 0 {
			break
		}
		n++
	}
	want := (Size - headerSize) / (100 + slotSize)
	if n != want {
		t.Fatalf("page held %d 100-byte items, want %d", n, want)
	}
}

func TestCompactReclaimsSpace(t *testing.T) {
	p := newPage(t)
	item := make([]byte, 1000)
	var slots []int
	for i := 0; i < 8; i++ {
		s := p.Insert(item)
		if s < 0 {
			t.Fatalf("insert %d failed", i)
		}
		slots = append(slots, s)
	}
	// Mark alternating slots dead and remember the survivors' contents.
	for i, s := range slots {
		if i%2 == 0 {
			p.Delete(s)
		} else {
			copy(p.Item(s), []byte{byte(i), byte(i), byte(i)})
		}
	}
	before := p.FreeSpace()
	reclaimed := p.Compact()
	if reclaimed != 4*1000 {
		t.Fatalf("reclaimed %d, want 4000", reclaimed)
	}
	if p.FreeSpace() <= before {
		t.Fatal("free space did not grow")
	}
	for i, s := range slots {
		if i%2 == 0 {
			if p.Item(s) != nil {
				t.Fatalf("dead slot %d alive after compact", s)
			}
			continue
		}
		it := p.Item(s)
		if it == nil || it[0] != byte(i) || it[1] != byte(i) || it[2] != byte(i) {
			t.Fatalf("slot %d corrupted after compact: %v", s, it[:3])
		}
	}
}

func TestLiveItems(t *testing.T) {
	p := newPage(t)
	live := func() int {
		n := 0
		for i := 0; i < p.NumSlots(); i++ {
			if p.Item(i) != nil {
				n++
			}
		}
		return n
	}
	a := p.Insert([]byte("x"))
	p.Insert([]byte("y"))
	if n := live(); n != 2 {
		t.Fatalf("live items = %d", n)
	}
	p.Delete(a)
	if n := live(); n != 1 {
		t.Fatalf("live items after delete = %d", n)
	}
}

// property: any sequence of inserts/deletes/compacts preserves the
// contents of live items exactly.
func TestPropertyRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := make(Page, Size)
		Init(p, 1, 1)
		type live struct {
			slot int
			data []byte
		}
		var model []live
		for op := 0; op < 300; op++ {
			switch {
			case len(model) == 0 || rng.Intn(3) > 0:
				n := 1 + rng.Intn(600)
				data := make([]byte, n)
				rng.Read(data)
				s := p.Insert(data)
				if s >= 0 {
					model = append(model, live{s, append([]byte(nil), data...)})
				}
			case rng.Intn(2) == 0:
				i := rng.Intn(len(model))
				p.Delete(model[i].slot)
				model = append(model[:i], model[i+1:]...)
			default:
				p.Compact()
			}
			for _, m := range model {
				if !bytes.Equal(p.Item(m.slot), m.data) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
