package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
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
		Rows: []WaitProfileRow{
			{Class: "IO", Event: "log_force", Op: "commit", Waits: 42, WaitNs: 4200000, Waiting: 1},
			{Class: "Lock", Event: "lock_acquire", Op: "open", Rel: "inv99",
				Waits: math.MaxUint64, WaitNs: math.MaxInt64, Waiting: math.MaxUint32},
		},
	})
	f.Add(full)
	f.Add(full[:len(full)-3])
	// A 9-byte reply claiming 2^32-1 rows: the count must be refused
	// before any row is allocated.
	f.Add([]byte{waitProfileVersion, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0})
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

// FuzzParseFlightBundle: a bundle is read back from a file an operator
// hands over, so the parser must reject anything malformed with an
// error, and whatever it accepts must re-encode to a bundle that parses
// and re-encodes to the same bytes.
func FuzzParseFlightBundle(f *testing.F) {
	r := NewFlightRecorder(16)
	r.RecordMarker("panic", "op mkdir: boom")
	r.RecordLifecycle("log_force", "", 1500, 1)
	r.RecordSpan(SpanData{Op: "commit", TraceID: "00000000000000010000000000000002", WallNs: 777, LockWaitNs: 50})
	var buf bytes.Buffer
	if err := r.WriteBundle(&buf, "fuzz", &WaitProfile{Rows: []WaitProfileRow{
		{Class: "IO", Event: "log_force", Op: "commit", Waits: 3, WaitNs: 4500, Waiting: 1},
	}}); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add([]byte(`{"version":2,"reason":"x","events":[{"kind":"wait","waits":[{}]}]}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		fb, err := ParseFlightBundle(b)
		if err != nil {
			return
		}
		once, err := json.Marshal(fb)
		if err != nil {
			t.Fatalf("accepted bundle does not re-encode: %v", err)
		}
		again, err := ParseFlightBundle(once)
		if err != nil {
			t.Fatalf("re-encoded bundle does not parse: %v\n%s", err, once)
		}
		twice, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("round trip changed the bundle:\n%s\n%s", once, twice)
		}
	})
}
