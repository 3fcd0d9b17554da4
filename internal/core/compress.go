package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Chunk compression ("Services Under Investigation"): Inversion
// "supports compression and uncompression of 'chunks' of user files.
// Special indices are maintained indicating the sizes of the
// uncompressed and compressed chunks. Random access on the uncompressed
// version is straightforward." Because the logical chunk size is fixed,
// the byte offset → chunk number mapping is unchanged; each stored
// chunk carries a method byte and its uncompressed length, and a chunk
// that does not compress is stored raw so the record still fits on one
// page.

// Compression methods stored in the chunk envelope.
const (
	chunkRaw   byte = 0
	chunkFlate byte = 1
)

// compressOverhead is the envelope size: method(1) | rawLen(4).
const compressOverhead = 5

// A flate.Writer carries about 1.2 MB of state and a reader 40 KB plus
// its window, so neither is built per chunk: both are kept in pools and
// Reset. A Reset writer emits exactly the bytes a new one would.

// deflater is a reusable compressor with the buffer it writes into.
type deflater struct {
	w   *flate.Writer
	out bytes.Buffer
}

var deflaters = sync.Pool{New: func() any {
	z := &deflater{}
	z.w, _ = flate.NewWriter(&z.out, flate.BestSpeed) // fails only for an invalid level
	return z
}}

// compress wraps chunk contents in the compression envelope:
// method(1) | rawLen(4) | payload. The result is z's own buffer: it is
// valid until z is used again or goes back to the pool.
func (z *deflater) compress(data []byte) ([]byte, error) {
	hdr := [compressOverhead]byte{chunkFlate}
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(data)))
	z.out.Reset()
	z.out.Write(hdr[:])
	z.w.Reset(&z.out)
	if _, err := z.w.Write(data); err != nil {
		return nil, err
	}
	if err := z.w.Close(); err != nil {
		return nil, err
	}
	if z.out.Len()-compressOverhead >= len(data) {
		// Incompressible: store raw.
		hdr[0] = chunkRaw
		z.out.Reset()
		z.out.Write(hdr[:])
		z.out.Write(data)
	}
	return z.out.Bytes(), nil
}

// inflater is a reusable decompressor with the reader it draws from.
type inflater struct {
	r   io.ReadCloser // a flate reader; also a flate.Resetter
	src bytes.Reader
}

var inflaters = sync.Pool{New: func() any {
	z := &inflater{}
	z.r = flate.NewReader(&z.src)
	return z
}}

// storedRawLen reports the uncompressed length a stored chunk claims
// (0 for one too short to say, which inflateChunk then rejects).
func storedRawLen(stored []byte) int {
	if len(stored) < compressOverhead {
		return 0
	}
	return int(binary.LittleEndian.Uint32(stored[1:]))
}

// inflateChunk unwraps the envelope written by compress straight into
// dst and reports the chunk's uncompressed length. dst must have room
// for all of it; no chunk is longer than ChunkSize.
func inflateChunk(dst, stored []byte) (int, error) {
	if len(stored) < compressOverhead {
		return 0, fmt.Errorf("inversion: compressed chunk too short (%d bytes)", len(stored))
	}
	rawLen := storedRawLen(stored)
	body := stored[compressOverhead:]
	if rawLen > len(dst) {
		return 0, fmt.Errorf("inversion: chunk claims %d bytes, more than the %d a chunk holds", rawLen, len(dst))
	}
	switch method := stored[0]; method {
	case chunkRaw:
		if rawLen != len(body) {
			return 0, fmt.Errorf("inversion: raw chunk length mismatch: %d vs %d", rawLen, len(body))
		}
		return copy(dst, body), nil
	case chunkFlate:
		z := inflaters.Get().(*inflater)
		defer inflaters.Put(z)
		z.src.Reset(body)
		if err := z.r.(flate.Resetter).Reset(&z.src, nil); err != nil {
			return 0, err
		}
		n, err := io.ReadFull(z.r, dst[:rawLen])
		if err == nil {
			// The stream must end where the header says it does.
			var extra [1]byte
			var m int
			m, err = io.ReadFull(z.r, extra[:])
			n += m
		}
		switch {
		case err == io.EOF && n == rawLen:
			return rawLen, nil
		case err == nil || err == io.EOF || err == io.ErrUnexpectedEOF:
			return 0, fmt.Errorf("inversion: decompressed %d bytes or more, header says %d", n, rawLen)
		}
		return 0, err
	default:
		return 0, fmt.Errorf("inversion: unknown chunk compression method %d", method)
	}
}
