package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math/rand"
	"testing"
)

// compressChunk and decompressChunk drive the pooled codecs the way
// writeChunk and readChunkAt do, returning copies the tests may keep.
func compressChunk(data []byte) ([]byte, error) {
	z := deflaters.Get().(*deflater)
	defer deflaters.Put(z)
	stored, err := z.compress(data)
	return append([]byte(nil), stored...), err
}

func decompressChunk(stored []byte) ([]byte, error) {
	buf := make([]byte, ChunkSize)
	n, err := inflateChunk(buf, stored)
	return buf[:n], err
}

// freshCompressChunk is the seed's compressChunk: a new flate.Writer
// per chunk. The pooled, Reset writer must store the same bytes.
func freshCompressChunk(data []byte) []byte {
	var buf bytes.Buffer
	buf.WriteByte(chunkFlate)
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(data)))
	buf.Write(lenb[:])
	w, _ := flate.NewWriter(&buf, flate.BestSpeed)
	w.Write(data)
	w.Close()
	if buf.Len()-5 >= len(data) {
		out := append([]byte{chunkRaw}, lenb[:]...)
		return append(out, data...)
	}
	return buf.Bytes()
}

// compressCorpus is FuzzCompressRoundTrip's seed corpus plus chunks of
// the kinds files hold: text, noise (the raw fallback), and a mix.
func compressCorpus() [][]byte {
	r := rand.New(rand.NewSource(3))
	noise := make([]byte, ChunkSize)
	r.Read(noise)
	mixed := append(bytes.Repeat([]byte("inversion "), 400), noise[:3000]...)
	return [][]byte{
		[]byte("hello"), bytes.Repeat([]byte{0}, 5000), {},
		bytes.Repeat([]byte("the quick brown fox "), ChunkSize/20), noise, mixed, noise[:1],
	}
}

// TestPooledCompressorStoresSeedBytes: reusing one flate.Writer across
// chunks, in any order, stores byte for byte what a new writer per
// chunk stored, and every stored chunk inflates back into place.
func TestPooledCompressorStoresSeedBytes(t *testing.T) {
	corpus := compressCorpus()
	z := deflaters.Get().(*deflater)
	defer deflaters.Put(z)
	back := make([]byte, ChunkSize)
	for round := 0; round < 3; round++ {
		for i, data := range corpus {
			stored, err := z.compress(data)
			if err != nil {
				t.Fatal(err)
			}
			if want := freshCompressChunk(data); !bytes.Equal(stored, want) {
				t.Fatalf("round %d chunk %d: pooled writer stored %d bytes, a fresh one %d, and they differ",
					round, i, len(stored), len(want))
			}
			n, err := inflateChunk(back, stored)
			if err != nil || !bytes.Equal(back[:n], data) {
				t.Fatalf("round %d chunk %d: inflate gave %d bytes, err %v", round, i, n, err)
			}
		}
	}
}

// FuzzDecompressChunk: arbitrary stored bytes must never panic the
// chunk decompressor; they either decode or error.
func FuzzDecompressChunk(f *testing.F) {
	good, _ := compressChunk([]byte("seed data for the corpus"))
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{chunkRaw, 0, 0, 0, 0})
	f.Add([]byte{chunkFlate, 1, 0, 0, 0, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := decompressChunk(data)
		if err == nil && out == nil && len(data) >= 5 {
			// nil-with-no-error is only legal for a zero-length chunk.
			raw, err2 := decompressChunk(data)
			if err2 == nil && len(raw) != 0 {
				t.Fatal("inconsistent decompress results")
			}
		}
	})
}

// FuzzCompressRoundTrip: whatever bytes go in must come back.
func FuzzCompressRoundTrip(f *testing.F) {
	for _, seed := range compressCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > ChunkSize {
			data = data[:ChunkSize]
		}
		stored, err := compressChunk(data)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decompressChunk(stored)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip: %d bytes in, %d out", len(data), len(back))
		}
	})
}

// FuzzSplitPath: arbitrary path strings must never panic the resolver.
func FuzzSplitPath(f *testing.F) {
	for _, seed := range []string{"/", "", "/a/b/c", "//", "/../..", "a", "/a/./../b"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, path string) {
		parts, err := SplitPath(path)
		if err != nil {
			return
		}
		for _, p := range parts {
			if p == "" || p == "." || p == ".." {
				t.Fatalf("SplitPath(%q) leaked component %q", path, p)
			}
		}
	})
}
