package taintmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

// stackConn records, for every Read of the client it carries, the stack
// of the goroutine doing it.
type stackConn struct {
	io.ReadWriteCloser

	mu     sync.Mutex
	stacks []string
}

func (c *stackConn) Read(p []byte) (int, error) {
	buf := make([]byte, 16<<10)
	buf = buf[:runtime.Stack(buf, false)]
	c.mu.Lock()
	c.stacks = append(c.stacks, string(buf))
	c.mu.Unlock()
	return c.ReadWriteCloser.Read(p)
}

// take returns the stacks recorded since the last take.
func (c *stackConn) take() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stacks
	c.stacks = nil
	return s
}

// TestReadRoleWhoReads pins who reads a reply off the connection: a lone
// call without a deadline reads its own inside call, and a call with a
// deadline — which could not abandon a Read — leaves it to the helper.
// So for a registration: a lone Register reads its answer as it collects
// it, and an issued one, which nobody waits on yet, leaves it to the
// helper.
func TestReadRoleWhoReads(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := n.Dial("tm:1")
	if err != nil {
		t.Fatal(err)
	}
	sc := &stackConn{ReadWriteCloser: conn}
	tree := taint.NewTree()
	c := newRemoteClientWith(sc, tree, &cache{}, 0, netsim.WallClock{})
	defer c.Close()

	stats := func(deadline time.Time) func() error {
		return func() error {
			_, err := c.call(opStatsTag, nil, deadline)
			return err
		}
	}
	for _, tc := range []struct {
		name    string
		do      func() error
		in, not string
	}{
		{"NoDeadline", stats(time.Time{}), ").call(", ").demux("},
		{"Deadline", stats(time.Now().Add(10 * time.Second)), ").demux(", ").call("},
		{"Register", func() error {
			_, err := c.Register(tree.NewSource("lone", "h:1"))
			return err
		}, ").answer(", ").demux("},
		{"Issued", func() error {
			var r Registration
			ts := []taint.Taint{tree.NewSource("issued", "h:1")}
			blob, err := taint.MarshalTaint(ts[0])
			if err == nil {
				c.Issue(&r, ts, [][]byte{blob})
				err = c.Collect(&r)
			}
			return err
		}, ").demux(", ").answer("},
	} {
		if err := tc.do(); err != nil {
			t.Fatal(err)
		}
		stacks := sc.take()
		if len(stacks) == 0 {
			t.Fatalf("%s: the reply was read without a Read", tc.name)
		}
		for _, s := range stacks {
			if !strings.Contains(s, tc.in) || strings.Contains(s, tc.not) {
				t.Fatalf("%s: the reply was read on\n%s", tc.name, s)
			}
		}
	}
}

// scriptConn is a server that answers nothing until it is closed: its
// Close delivers one reply — to the first request written — to the Read
// in progress, as a reply already buffered when the teardown began
// would reach its reader. Reads after that see EOF.
type scriptConn struct {
	mu     sync.Mutex
	tags   []uint32
	wrote  chan struct{} // one token per request frame written
	inRead chan struct{} // closed at the first Read
	feed   chan []byte   // the reply; closed behind it by Close
	once   sync.Once
	closer sync.Once
}

func newScriptConn() *scriptConn {
	return &scriptConn{wrote: make(chan struct{}, 16), inRead: make(chan struct{}), feed: make(chan []byte, 1)}
}

func (c *scriptConn) Write(p []byte) (int, error) {
	for w := p; len(w) >= 9; w = w[9+int(binary.BigEndian.Uint32(w[5:9])):] {
		c.mu.Lock()
		c.tags = append(c.tags, binary.BigEndian.Uint32(w[1:5]))
		c.mu.Unlock()
		c.wrote <- struct{}{}
	}
	return len(p), nil
}

func (c *scriptConn) Read(p []byte) (int, error) {
	c.once.Do(func() { close(c.inRead) })
	b, ok := <-c.feed
	if !ok {
		return 0, io.EOF
	}
	return copy(p, b), nil
}

func (c *scriptConn) Close() error {
	c.closer.Do(func() {
		c.mu.Lock()
		tag := c.tags[0]
		c.mu.Unlock()
		c.feed <- append(appendFrameHeader(nil, statusTaggedOK, tag, 24), make([]byte, 24)...)
		close(c.feed)
	})
	return nil
}

// TestReadRoleCloseAfterDrainedReply: the holder of the read role drains
// its own reply after Close has begun the teardown, and would give the
// role up as after any reply. It must fail the client instead: alone, it
// would leave Close waiting for ever on a failure nobody makes; with a
// call pending behind it, that call must fail with ErrClientClosed.
func TestReadRoleCloseAfterDrainedReply(t *testing.T) {
	for _, waiters := range []int{0, 1} {
		t.Run(fmt.Sprintf("Waiters%d", waiters), func(t *testing.T) {
			sc := newScriptConn()
			c := newRemoteClientWith(sc, taint.NewTree(), &cache{}, 0, netsim.WallClock{})
			calls := make(chan error, 1+waiters)
			for i := 0; i <= waiters; i++ {
				go func() {
					_, err := c.call(opStatsTag, nil, time.Time{})
					calls <- err
				}()
				<-sc.wrote
				if i == 0 {
					<-sc.inRead // the first call holds the role, parked in Read
				}
			}
			closed := make(chan error, 1)
			go func() { closed <- c.Close() }()
			var errs []error
			for len(errs) < 2+waiters {
				select {
				case err := <-closed:
					if err != nil {
						t.Fatalf("Close = %v", err)
					}
					errs = append(errs, nil)
				case err := <-calls:
					errs = append(errs, err)
				case <-time.After(10 * time.Second):
					t.Fatalf("%d of %d returns came: nobody failed the client", len(errs), 2+waiters)
				}
			}
			var failed int
			for _, err := range errs {
				switch {
				case errors.Is(err, ErrClientClosed):
					failed++
				case err != nil:
					t.Fatalf("call = %v, want its drained reply or ErrClientClosed", err)
				}
			}
			if failed != waiters {
				t.Fatalf("%d calls failed, want the %d left pending", failed, waiters)
			}
			if _, err := c.call(opStatsTag, nil, time.Time{}); !errors.Is(err, ErrClientClosed) {
				t.Fatalf("call after Close = %v, want ErrClientClosed", err)
			}
		})
	}
}

// logRecorder is a Server logf that keeps what it was given.
type logRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (r *logRecorder) logf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *logRecorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.lines...)
}

// TestServerCloseLogsNoTeardown: the connections a Server's own Close
// tears down end without a log line — over netsim and over TCP, where
// the read fails with net.ErrClosed — while a real read error of a live
// server is still logged.
func TestServerCloseLogsNoTeardown(t *testing.T) {
	for _, tc := range []struct {
		name   string
		listen func(t *testing.T) (Acceptor, func() (io.ReadWriteCloser, error))
	}{
		{"netsim", func(t *testing.T) (Acceptor, func() (io.ReadWriteCloser, error)) {
			n := netsim.New()
			l, err := n.Listen("tm:1")
			if err != nil {
				t.Fatal(err)
			}
			return simAcceptor{l: l, clk: n.Clock()}, func() (io.ReadWriteCloser, error) { return n.Dial("tm:1") }
		}},
		{"TCP", func(t *testing.T) (Acceptor, func() (io.ReadWriteCloser, error)) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Skipf("no loopback TCP available: %v", err)
			}
			return netAcceptor{l: l}, func() (io.ReadWriteCloser, error) { return net.Dial("tcp", l.Addr().String()) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			acc, dial := tc.listen(t)
			var rec logRecorder
			srv := NewServer(NewStore(), acc, rec.logf)
			srv.Start()
			defer srv.Close()

			// A peer speaking another framing: a real error, logged.
			bad, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			defer bad.Close()
			if _, err := bad.Write([]byte("GET / HTTP/1.0\r\n\r\n")); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); len(rec.snapshot()) == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("a protocol error was never logged")
				}
			}
			if got := rec.snapshot(); len(got) != 1 || !strings.Contains(got[0], "connection error") {
				t.Fatalf("logged %q, want one connection error", got)
			}

			// Live connections, each mid-conversation, torn down by Close.
			for i := 0; i < 4; i++ {
				conn, err := dial()
				if err != nil {
					t.Fatal(err)
				}
				c := NewRemoteClient(conn, taint.NewTree())
				defer c.Close()
				if _, err := c.Stats(); err != nil {
					t.Fatal(err)
				}
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if got := rec.snapshot(); len(got) != 1 {
				t.Fatalf("Close logged %q", got[1:])
			}
		})
	}
}
