package taintmap

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// stepConn hands serveConn one prepared chunk per Read and reports the
// size of every Write, so a test can feed it one round of requests at a
// time and wait for the answers.
type stepConn struct {
	in    chan []byte
	wrote chan int
}

func (c *stepConn) Read(p []byte) (int, error) {
	b, ok := <-c.in
	if !ok {
		return 0, io.EOF
	}
	return copy(p, b), nil
}

func (c *stepConn) Write(p []byte) (int, error) {
	c.wrote <- len(p)
	return len(p), nil
}

// TestServeConnSteadyStateAllocs: a warmed connection answers a
// known-blob register (a batch of one), a batch register and a lookup
// batch without one allocation — no frame header, read or written,
// reaches the heap.
func TestServeConnSteadyStateAllocs(t *testing.T) {
	s := NewStore()
	a, b := []byte("steady-a"), []byte("steady-b")
	ids := []uint32{s.RegisterBlob(a), s.RegisterBlob(b)}
	var round []byte
	round = append(round, loneRegisterReq(1, a)...)
	round = append(round, taggedReq(opRegisterBatchTag, 2, appendBlobList(nil, [][]byte{a, b}))...)
	round = append(round, taggedReq(opLookupBatchTag, 3, appendIDList(nil, ids))...)

	conn := &stepConn{in: make(chan []byte), wrote: make(chan int)}
	served := make(chan error, 1)
	go func() { served <- serveConn(connHost{store: s}, conn, 0) }()
	ask := func() {
		conn.in <- round
		<-conn.wrote // the three replies, one flush
	}
	for range 3 {
		ask()
	}
	if allocs := testing.AllocsPerRun(200, ask); allocs != 0 {
		t.Fatalf("a round of three frames allocates %.1f times, want 0", allocs)
	}
	close(conn.in)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestReadTaggedFrameFragmented reads a frame delivered one byte per
// Read, and the same frame cut at every offset of its header: io.EOF
// before its first byte, io.ErrUnexpectedEOF after 1-8 of them.
func TestReadTaggedFrameFragmented(t *testing.T) {
	frame := taggedReq(opRegisterBatchTag, 0x01020304, []byte("payload"))
	read := func(b []byte) (byte, uint32, []byte, error) {
		br := bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(b)), 16)
		return readTaggedFrame(br, nil, isRequestOp, maxFrame)
	}
	head, tag, payload, err := read(frame)
	if err != nil || head != opRegisterBatchTag || tag != 0x01020304 || string(payload) != "payload" {
		t.Fatalf("one byte per read: %q %#x %q %v", head, tag, payload, err)
	}
	for cut := range 9 {
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF
		}
		if _, _, _, err := read(frame[:cut]); err != want {
			t.Fatalf("frame cut after %d bytes: %v, want %v", cut, err, want)
		}
	}
	// The head byte is vetted before anything behind it is read.
	src := bytes.NewReader(untaggedReq('l', []byte("x")))
	br := bufio.NewReaderSize(iotest.OneByteReader(src), 16)
	if _, _, _, err := readTaggedFrame(br, nil, isRequestOp, maxFrame); !errors.Is(err, errProtocol) {
		t.Fatalf("frame head 'l': %v, want a protocol error", err)
	}
	if read := src.Size() - int64(src.Len()); read != 1 {
		t.Fatalf("a bad head read %d bytes of the stream, want 1", read)
	}
}

// TestRetiredOpsRefused: a lone registration is a batch of one and a
// read-repair is a replicate push, so the single register 'r' and the
// repair push 'w' are no ops: either head fails a clustered server's
// connection with errProtocol on that byte, nothing behind it is served
// and nothing is written back.
func TestRetiredOpsRefused(t *testing.T) {
	entries := appendEntries(nil, []uint32{partitionBase(1) | 1}, [][]byte{[]byte("blob")})
	for _, req := range [][]byte{
		taggedReq('r', 1, []byte("blob")),
		taggedReq('w', 2, entries),
	} {
		node, err := NewClusterNode(Member{Part: 0, Addr: "a:1"},
			[]Member{{Part: 0, Addr: "a:1"}, {Part: 1, Addr: "b:1"}}, 2,
			func(string) (io.ReadWriteCloser, error) { return nil, errors.New("no network") })
		if err != nil {
			t.Fatal(err)
		}
		s := NewStore()
		conn := &fuzzConn{r: bytes.NewReader(append(req, loneRegisterReq(3, []byte("behind"))...))}
		err = serveConn(connHost{store: s, node: node}, conn, 0)
		node.Close()
		if !errors.Is(err, errProtocol) || !strings.Contains(err.Error(), fmt.Sprintf("%q", req[0])) {
			t.Fatalf("head %q: %v, want a protocol error on that byte", req[0], err)
		}
		if conn.w.Len() != 0 {
			t.Fatalf("head %q: %d bytes written back, want none", req[0], conn.w.Len())
		}
		if st := s.Stats(); st.Registrations != 0 || st.GlobalTaints != 0 || s.Replicated(1) != 0 {
			t.Fatalf("head %q: the store served %+v and adopted %d entries", req[0], st, s.Replicated(1))
		}
	}
}
