package jre

import (
	"io"

	"dista/internal/core/taint"
	"dista/internal/instrument"
	"dista/internal/netsim"
)

// InputStream is the read side of any stream class. Read performs one
// read into buf (data and labels), returning the byte count; io.EOF at
// end of stream.
type InputStream interface {
	Read(buf *taint.Bytes) (int, error)
}

// OutputStream is the write side of any stream class. Write sends all
// of b; Flush pushes buffered data down the stack.
type OutputStream interface {
	Write(b taint.Bytes) error
	Flush() error
}

// ReadFull reads exactly len(buf.Data) bytes from in, like
// io.ReadFull.
func ReadFull(in InputStream, buf *taint.Bytes) error {
	got := 0
	for got < len(buf.Data) {
		sub := buf.Slice(got, len(buf.Data))
		n, err := in.Read(&sub)
		// A dista read may materialize a shadow store on the sub-slice
		// view; if the parent had none to alias, adopt the labels run
		// by run so they persist.
		if sub.HasShadow() && !buf.HasShadow() {
			sub.ForEachRun(func(f, t int, tn taint.Taint) {
				if !tn.Empty() {
					buf.SetRange(got+f, got+t, tn)
				}
			})
		}
		got += n
		if err != nil {
			if err == io.EOF && got < len(buf.Data) {
				return io.ErrUnexpectedEOF
			}
			if got == len(buf.Data) {
				return nil
			}
			return err
		}
	}
	return nil
}

// Socket is a connected TCP-like socket (java.net.Socket).
type Socket struct {
	env *Env
	ep  *instrument.Endpoint
	in  *SocketInputStream
	out *SocketOutputStream
}

// newSocket wraps an established connection.
func newSocket(env *Env, conn *netsim.Conn) *Socket {
	s := &Socket{env: env, ep: instrument.NewAdaptiveEndpoint(env.Agent, conn)}
	s.in = &SocketInputStream{ep: s.ep}
	s.out = &SocketOutputStream{ep: s.ep}
	return s
}

// DialSocket connects to a listening address (new Socket(host, port)).
func DialSocket(env *Env, addr string) (*Socket, error) {
	conn, err := env.Net.Dial(addr)
	if err != nil {
		return nil, err
	}
	return newSocket(env, conn), nil
}

// InputStream returns the socket's input stream (Socket.getInputStream).
func (s *Socket) InputStream() *SocketInputStream { return s.in }

// OutputStream returns the socket's output stream (Socket.getOutputStream).
func (s *Socket) OutputStream() *SocketOutputStream { return s.out }

// Close shuts the socket down.
func (s *Socket) Close() error { return s.ep.Conn().Close() }

// RemoteAddr returns the peer address.
func (s *Socket) RemoteAddr() string { return s.ep.Conn().RemoteAddr() }

// ServerSocket accepts TCP-like connections (java.net.ServerSocket).
type ServerSocket struct {
	env *Env
	l   *netsim.Listener
}

// ListenSocket binds a server socket.
func ListenSocket(env *Env, addr string) (*ServerSocket, error) {
	l, err := env.Net.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &ServerSocket{env: env, l: l}, nil
}

// Accept blocks for the next connection.
func (s *ServerSocket) Accept() (*Socket, error) {
	conn, err := s.l.Accept()
	if err != nil {
		return nil, err
	}
	return newSocket(s.env, conn), nil
}

// Addr returns the bound address.
func (s *ServerSocket) Addr() string { return s.l.Addr() }

// Close stops accepting.
func (s *ServerSocket) Close() error { return s.l.Close() }

// SocketInputStream is the JRE class of Fig. 1 whose read bottoms out in
// the socketRead0 native — here, the instrumented endpoint.
type SocketInputStream struct {
	ep *instrument.Endpoint
}

var _ InputStream = (*SocketInputStream)(nil)

// Read performs one instrumented read.
func (s *SocketInputStream) Read(buf *taint.Bytes) (int, error) {
	return s.ep.Read(buf)
}

// ReadTaintedByte reads a single byte with its taint.
func (s *SocketInputStream) ReadTaintedByte() (byte, taint.Taint, error) {
	buf := taint.MakeBytes(1)
	if err := ReadFull(s, &buf); err != nil {
		return 0, taint.Taint{}, err
	}
	return buf.Data[0], buf.LabelAt(0), nil
}

// SocketOutputStream is the JRE class of Fig. 1 whose write bottoms out
// in the socketWrite0 native.
type SocketOutputStream struct {
	ep *instrument.Endpoint
}

var _ OutputStream = (*SocketOutputStream)(nil)

// Write sends all of b through the instrumented native.
func (s *SocketOutputStream) Write(b taint.Bytes) error {
	return s.ep.Write(b)
}

// WriteTaintedByte sends a single byte with its taint.
func (s *SocketOutputStream) WriteTaintedByte(b byte, t taint.Taint) error {
	one := taint.WrapBytes([]byte{b})
	one.SetLabel(0, t)
	return s.Write(one)
}

// Flush is a no-op; socket streams are unbuffered.
func (s *SocketOutputStream) Flush() error { return nil }
