package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rowenc"
)

// recordingConn records every Write made on a connection.
type recordingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordingConn) take() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.writes
	c.writes = nil
	return w
}

// seedFrame is the frame as the seed's writeMsg put it on the wire, in
// two writes: u32 length | kind, then the payload.
func seedFrame(kind byte, payload []byte) []byte {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = kind
	return append(hdr[:], payload...)
}

// TestOneWritePerFrame: every request and every reply goes out in one
// Write (one segment on a TCP connection that does not delay small
// writes), and its bytes are those the seed sent in two: the 0x80
// trace-context request, a data reply, and the reply with no payload.
func TestOneWritePerFrame(t *testing.T) {
	srv := NewServer(newTestDB(t))
	srv.SetLogf(func(string, ...any) {})
	clientEnd, serverEnd := net.Pipe()
	server := &recordingConn{Conn: serverEnd}
	served := make(chan struct{})
	go func() {
		srv.serveConn(server)
		close(served)
	}()
	client := &recordingConn{Conn: clientEnd}
	c := &Client{
		cfg:      DialConfig{Owner: "mao"}.withDefaults(),
		rng:      rand.New(rand.NewSource(1)),
		closedCh: make(chan struct{}),
		conn:     client,
	}
	defer func() {
		c.Close()
		<-served
	}()
	if err := writeMsg(client, 0, []byte("mao")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readMsg(client); err != nil {
		t.Fatal(err)
	}

	// Each step is one client frame and one server frame. want is the
	// op's own payload; the reply is checked against wantReply.
	data := bytes.Repeat([]byte("chunk"), 4000)
	got := make([]byte, len(data))
	var fd FD
	steps := []struct {
		name      string
		op        byte
		want      func() []byte
		call      func() error
		wantReply func() []byte
	}{
		{"handshake", 0, func() []byte { return []byte("mao") }, func() error { return nil },
			func() []byte { return nil }},
		{"creat", OpCreat,
			func() []byte { return rowenc.NewWriter(0).String("/f").String("").String("").Uint32(0).Done() },
			func() (err error) { fd, err = c.PCreat("/f", core.CreateOpts{}); return },
			func() []byte { return rowenc.NewWriter(0).Uint32(uint32(fd)).Done() }},
		{"write", OpWrite,
			func() []byte { return rowenc.NewWriter(0).Uint32(uint32(fd)).Bytes(data).Done() },
			func() error { _, err := c.PWrite(fd, data); return err },
			func() []byte { return rowenc.NewWriter(0).Uint32(uint32(len(data))).Done() }},
		{"lseek", OpLseek,
			func() []byte { return rowenc.NewWriter(0).Uint32(uint32(fd)).Int64(0).Uint32(SeekSet).Done() },
			func() error { _, err := c.PLseek(fd, 0, SeekSet); return err },
			func() []byte { return rowenc.NewWriter(0).Int64(0).Done() }},
		{"read", OpRead,
			func() []byte { return rowenc.NewWriter(0).Uint32(uint32(fd)).Uint32(uint32(len(got))).Done() },
			func() error { _, err := c.PRead(fd, got); return err },
			func() []byte { return data }},
		{"close (empty reply)", OpClose,
			func() []byte { return rowenc.NewWriter(0).Uint32(uint32(fd)).Done() },
			func() error { return c.PClose(fd) },
			func() []byte { return nil }},
	}
	for _, st := range steps {
		if err := st.call(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		sent, replied := client.take(), server.take()
		if len(sent) != 1 || len(replied) != 1 {
			t.Fatalf("%s: request went out in %d writes and the reply in %d; want one each",
				st.name, len(sent), len(replied))
		}
		wantSent := seedFrame(st.op, st.want())
		if st.op != 0 {
			// A request carries the trace flag and, ahead of its own
			// payload, the trace context.
			if len(sent[0]) < frameHeader+traceCtxLen {
				t.Fatalf("%s: request of %d bytes has no trace context", st.name, len(sent[0]))
			}
			tc := sent[0][frameHeader : frameHeader+traceCtxLen]
			if _, _, dec, has, err := splitTraceCtx(sent[0][4], sent[0][frameHeader:]); err != nil || !has || !dec.Sampled || dec.Attempt != 0 {
				t.Fatalf("%s: trace context %x decodes to %+v (has=%v err=%v)", st.name, tc, dec, has, err)
			}
			wantSent = seedFrame(st.op|opTraceFlag, append(append([]byte(nil), tc...), st.want()...))
		}
		if !bytes.Equal(sent[0], wantSent) {
			t.Fatalf("%s: request frame differs from the seed's:\n got %x\nwant %x", st.name, head(sent[0]), head(wantSent))
		}
		if wantReply := seedFrame(statusOK, st.wantReply()); !bytes.Equal(replied[0], wantReply) {
			t.Fatalf("%s: reply frame differs from the seed's:\n got %x\nwant %x", st.name, head(replied[0]), head(wantReply))
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("PRead did not land the reply body in the caller's buffer")
	}
}

func head(b []byte) []byte { return b[:min(len(b), 48)] }

// keptBufferBytes reports how much message-buffer capacity the server's
// connections are holding between requests.
func (s *Server) keptBufferBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for sc := range s.conns {
		sc.mu.Lock()
		total += cap(sc.st.in) + cap(sc.st.out)
		sc.mu.Unlock()
	}
	return total
}

// TestReadReplySizedByFile is the regression test for OpRead allocating
// what the client asks for rather than what the file can give: the seed
// allocated the requested size (up to 8 MB) before looking at the file,
// so 8 MB reads of a 1-byte file cost 8 MB each. It also pins the rule
// that keeps reused buffers honest: a connection that has carried a
// large message does not sit on a large buffer afterwards.
func TestReadReplySizedByFile(t *testing.T) {
	srv, addr, _ := startServer(t)
	c := dial(t, addr, "mao")
	fd, err := c.PCreat("/tiny", core.CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PWrite(fd, []byte{42}); err != nil {
		t.Fatal(err)
	}
	const ask = maxMessage / 2 // 8 MB, the largest read the server accepts
	buf := make([]byte, ask)
	read := func() {
		if _, err := c.PLseek(fd, 0, SeekSet); err != nil {
			t.Fatal(err)
		}
		if n, err := c.PRead(fd, buf); err != nil || n != 1 || buf[0] != 42 {
			t.Fatalf("8 MB read of a 1-byte file: n=%d err=%v", n, err)
		}
	}
	read()
	const reads = 8
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&m1)
	if perRead := (m1.TotalAlloc - m0.TotalAlloc) / reads; perRead > 64<<10 {
		t.Fatalf("an 8 MB read request on a 1-byte file allocates %d KB (client and server together)", perRead>>10)
	}

	// A request and a reply that really are large: 3 MB written in one
	// call and read back in one.
	big := bytes.Repeat([]byte{7}, 3<<20)
	if _, err := c.PLseek(fd, 0, SeekSet); err != nil {
		t.Fatal(err)
	}
	if n, err := c.PWrite(fd, big); err != nil || n != len(big) {
		t.Fatalf("3 MB write: n=%d err=%v", n, err)
	}
	if _, err := c.PLseek(fd, 0, SeekSet); err != nil {
		t.Fatal(err)
	}
	if n, err := c.PRead(fd, buf); err != nil || n != len(big) || !bytes.Equal(buf[:n], big) {
		t.Fatalf("3 MB read: n=%d err=%v", n, err)
	}
	// The server lets go of an oversized buffer before it waits for the
	// next request, so one more round trip makes the check deterministic.
	if _, err := c.PLseek(fd, 0, SeekSet); err != nil {
		t.Fatal(err)
	}
	if kept := srv.keptBufferBytes(); kept > 2*maxKeptBuffer {
		t.Fatalf("an idle connection holds %d KB of message buffers after a 3 MB exchange; the limit is %d KB each way",
			kept>>10, maxKeptBuffer>>10)
	}
	c.mu.Lock()
	kept := cap(c.req)
	c.mu.Unlock()
	if kept > maxKeptBuffer {
		t.Fatalf("the client holds a %d KB request buffer after a 3 MB write", kept>>10)
	}
}
