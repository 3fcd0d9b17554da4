package rowenc

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	row := NewWriter(64).
		Uint32(42).
		Uint64(1 << 40).
		Int64(-7).
		String("hello").
		Bytes([]byte{1, 2, 3}).
		String("").
		Done()
	r := NewReader(row)
	if got := r.Uint32(); got != 42 {
		t.Fatalf("Uint32 = %d", got)
	}
	if got := r.Uint64(); got != 1<<40 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := r.Int64(); got != -7 {
		t.Fatalf("Int64 = %d", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("empty String = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes remain", r.Remaining())
	}
}

func TestTruncatedRowsErr(t *testing.T) {
	row := NewWriter(16).String("hello world").Done()
	for cut := 0; cut < len(row); cut++ {
		r := NewReader(row[:cut])
		_ = r.String()
		if r.Err() == nil {
			t.Fatalf("no error at cut %d", cut)
		}
	}
}

func TestErrorSticky(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.Uint64() // fails
	if r.Err() == nil {
		t.Fatal("no error")
	}
	if got := r.Uint32(); got != 0 {
		t.Fatalf("post-error read = %d", got)
	}
}

// TestCountBoundedByBytesLeft: a count is accepted exactly when the
// bytes after it can hold that many minimum-size elements.
func TestCountBoundedByBytesLeft(t *testing.T) {
	for _, tc := range []struct {
		n, min, left int
		ok           bool
	}{
		{0, 4, 0, true},
		{3, 4, 12, true},
		{3, 4, 11, false},
		{math.MaxUint32, 1, 16, false},
		{math.MaxUint32, math.MaxInt32, 16, false},
	} {
		row := append(NewWriter(4).Uint32(uint32(tc.n)).Done(), make([]byte, tc.left)...)
		r := NewReader(row)
		got := r.Count(tc.min)
		if ok := r.Err() == nil; ok != tc.ok || (ok && got != tc.n) || (!ok && got != 0) {
			t.Errorf("Count(%d) of %d over %d bytes = %d, err %v", tc.min, tc.n, tc.left, got, r.Err())
		}
	}
}

func TestReadingWrongShapeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		r := NewReader(data)
		_ = r.Uint32()
		_ = r.String()
		_ = r.Int64()
		_ = r.Bytes()
		_ = r.Uint64()
		return true // just must not panic
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(a uint32, b uint64, c int64, s string, raw []byte) bool {
		row := NewWriter(0).Uint32(a).Uint64(b).Int64(c).String(s).Bytes(raw).Done()
		r := NewReader(row)
		if r.Uint32() != a || r.Uint64() != b || r.Int64() != c {
			return false
		}
		if r.String() != s {
			return false
		}
		if !bytes.Equal(r.Bytes(), raw) && !(len(raw) == 0) {
			return false
		}
		return r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtremeValues(t *testing.T) {
	row := NewWriter(0).Int64(math.MinInt64).Int64(math.MaxInt64).Uint64(math.MaxUint64).Done()
	r := NewReader(row)
	if r.Int64() != math.MinInt64 || r.Int64() != math.MaxInt64 || r.Uint64() != math.MaxUint64 {
		t.Fatal("extremes corrupted")
	}
}
