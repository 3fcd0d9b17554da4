package obs

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// The statsv2 and waitprofile replies are decoded from bytes a peer
// sent, so their decoders must reject anything malformed with an error,
// never panic, and whatever they accept must survive a re-encode.

func FuzzDecodeSnapshot(f *testing.F) {
	reg := NewRegistry()
	reg.Counter("wire.requests").Add(12345)
	reg.Counter("buffer.shard03.hits").Add(math.MaxInt64)
	reg.GaugeFunc("buffer.capacity_pages", func() int64 { return 300 })
	reg.GaugeFunc("neg", func() int64 { return -7 })
	h := reg.Histogram("wire.op.read_ns")
	h.Observe(0)
	h.Observe(1024)
	h.Observe(math.MaxInt64)
	full := EncodeSnapshot(reg.Snapshot())
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(EncodeSnapshot(Snapshot{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSnapshot(b)
		if err != nil {
			return
		}
		again, err := DecodeSnapshot(EncodeSnapshot(s))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round trip changed the snapshot:\n%+v\n%+v", s, again)
		}
	})
}

func FuzzDecodeWaitProfile(f *testing.F) {
	full := EncodeWaitProfile(WaitProfile{
		IntervalNs: int64(10 * time.Millisecond),
		Rounds:     123456789,
		Rows: []WaitProfileRow{
			{Class: "IO", Event: "log_force", Op: "commit", Samples: 42},
			{Class: "Lock", Event: "lock_acquire", Op: "open", Rel: "inv99", Samples: math.MaxUint32},
		},
	})
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add(EncodeWaitProfile(WaitProfile{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodeWaitProfile(b)
		if err != nil {
			return
		}
		again, err := DecodeWaitProfile(EncodeWaitProfile(p))
		if err != nil {
			t.Fatalf("re-encoded profile does not decode: %v", err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("round trip changed the profile:\n%+v\n%+v", p, again)
		}
	})
}
