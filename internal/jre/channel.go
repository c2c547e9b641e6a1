package jre

import (
	"dista/internal/instrument"
	"dista/internal/netsim"
)

// SocketChannel is the NIO stream channel (java.nio.channels
// .SocketChannel). Its read/write path reproduces the real stack: heap
// ByteBuffer contents move through a direct buffer (IOUtil
// .writeFromNativeBuffer / readIntoNativeBuffer) and then through the
// dispatcher natives — all Type 3 instrumented methods.
type SocketChannel struct {
	env *Env
	ep  *instrument.Endpoint
	// Separate native staging buffers for each direction: a channel
	// supports one concurrent reader and one concurrent writer, so the
	// two paths must not share scratch memory.
	wscratch *DirectByteBuffer
	rscratch *DirectByteBuffer
}

func newSocketChannel(env *Env, conn *netsim.Conn) *SocketChannel {
	return &SocketChannel{
		env:      env,
		ep:       instrument.NewAdaptiveEndpoint(env.Agent, conn),
		wscratch: acquireDirect(env, defaultBufferSize),
		rscratch: acquireDirect(env, defaultBufferSize),
	}
}

// OpenSocketChannel connects to addr (SocketChannel.open + connect).
func OpenSocketChannel(env *Env, addr string) (*SocketChannel, error) {
	conn, err := env.Net.Dial(addr)
	if err != nil {
		return nil, err
	}
	return newSocketChannel(env, conn), nil
}

// ensureScratch grows a staging buffer to hold n bytes, recycling the
// outgrown one through the direct-buffer pool.
func (c *SocketChannel) ensureScratch(buf **DirectByteBuffer, n int) {
	if (*buf).Capacity() < n {
		releaseDirect(*buf)
		*buf = acquireDirect(c.env, n)
	}
}

// Write drains src's remaining bytes into the channel, returning the
// count (SocketChannel.write).
func (c *SocketChannel) Write(src *ByteBuffer) (int, error) {
	n := src.Remaining()
	if n == 0 {
		return 0, nil
	}
	c.ensureScratch(&c.wscratch, n)
	c.wscratch.Clear()
	// IOUtil.writeFromNativeBuffer: heap -> native (instrumented put),
	// then dispatcher write0 over the native block.
	if err := c.wscratch.Put(src.window()); err != nil {
		return 0, err
	}
	written, err := c.ep.WriteBuffer(c.wscratch.native(), 0, n)
	if err != nil {
		return 0, err
	}
	src.advance(written)
	return written, nil
}

// Read fills dst with one read's worth of bytes, returning the count or
// io.EOF (SocketChannel.read).
func (c *SocketChannel) Read(dst *ByteBuffer) (int, error) {
	want := dst.Remaining()
	if want == 0 {
		return 0, nil
	}
	c.ensureScratch(&c.rscratch, want)
	// Dispatcher read0 into native memory, then
	// IOUtil.readIntoNativeBuffer's heap copy via the instrumented get.
	n, err := c.ep.ReadBuffer(c.rscratch.native(), 0, want)
	if err != nil {
		return 0, err
	}
	c.rscratch.Clear()
	got := c.rscratch.Get(n)
	if err := dst.Put(got); err != nil {
		return 0, err
	}
	return n, nil
}

// Close shuts the channel down.
func (c *SocketChannel) Close() error { return c.ep.Conn().Close() }

// RemoteAddr returns the peer address.
func (c *SocketChannel) RemoteAddr() string { return c.ep.Conn().RemoteAddr() }

// ServerSocketChannel accepts NIO stream channels.
type ServerSocketChannel struct {
	env *Env
	l   *netsim.Listener
}

// OpenServerSocketChannel binds a listening channel.
func OpenServerSocketChannel(env *Env, addr string) (*ServerSocketChannel, error) {
	l, err := env.Net.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &ServerSocketChannel{env: env, l: l}, nil
}

// Accept blocks for the next connection.
func (s *ServerSocketChannel) Accept() (*SocketChannel, error) {
	conn, err := s.l.Accept()
	if err != nil {
		return nil, err
	}
	return newSocketChannel(s.env, conn), nil
}

// Addr returns the bound address.
func (s *ServerSocketChannel) Addr() string { return s.l.Addr() }

// Close stops accepting.
func (s *ServerSocketChannel) Close() error { return s.l.Close() }

// DatagramChannel is the NIO datagram channel
// (java.nio.channels.DatagramChannel): ByteBuffer API over the packet
// wrappers.
type DatagramChannel struct {
	env  *Env
	sock *netsim.UDPSocket
}

// OpenDatagramChannel binds a datagram channel.
func OpenDatagramChannel(env *Env, addr string) (*DatagramChannel, error) {
	sock, err := env.Net.ListenPacket(addr)
	if err != nil {
		return nil, err
	}
	return &DatagramChannel{env: env, sock: sock}, nil
}

// Send transmits src's remaining bytes as one datagram
// (DatagramChannel.send).
func (c *DatagramChannel) Send(src *ByteBuffer, dst string) (int, error) {
	payload := src.window()
	if err := instrument.PacketSend(c.env.Agent, c.sock, payload, dst); err != nil {
		return 0, err
	}
	n := payload.Len()
	src.advance(n)
	return n, nil
}

// Receive blocks for a datagram into dst, returning the source address
// (DatagramChannel.receive).
func (c *DatagramChannel) Receive(dst *ByteBuffer) (string, error) {
	win := dst.window()
	n, from, err := instrument.PacketReceive(c.env.Agent, c.sock, &win)
	if err != nil {
		return "", err
	}
	// PacketReceive may materialize labels on the window; re-put so the
	// parent buffer adopts them.
	filled := win.Slice(0, n)
	if err := dst.Put(filled); err != nil {
		return "", err
	}
	return from, nil
}

// Addr returns the bound address.
func (c *DatagramChannel) Addr() string { return c.sock.Addr() }

// Close releases the channel.
func (c *DatagramChannel) Close() error { return c.sock.Close() }
