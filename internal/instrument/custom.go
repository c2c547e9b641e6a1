package instrument

import (
	"sync"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
)

// Support for system-specific native communication methods (§VI
// "Support for specific JNI methods"): developers with their own native
// transport wrap it in a RawTransport and register it, and DisTA's
// Type 1 wrapper semantics apply unchanged.

// RawTransport is the minimal surface of a custom native send/receive
// pair: the analogue of a user's own JNI methods.
type RawTransport interface {
	// SendRaw transmits the whole buffer.
	SendRaw(b []byte) error
	// RecvRaw performs one read, returning the byte count; io.EOF at
	// end of stream.
	RecvRaw(b []byte) (int, error)
}

// CustomEndpoint applies the stream-oriented (Type 1) wrapper to a
// custom transport, exactly as Endpoint does for the standard socket
// natives.
type CustomEndpoint struct {
	agent *tracker.Agent
	rt    RawTransport

	wmu        sync.Mutex
	wroteMagic bool

	rmu sync.Mutex
	rd  streamReader
}

// WrapCustom instruments a custom transport for the given agent. The
// method pair should also be announced with RegisterCustomMethods so
// audits of the instrumentation surface (Table I listings) include it.
func WrapCustom(agent *tracker.Agent, rt RawTransport) *CustomEndpoint {
	return &CustomEndpoint{agent: agent, rt: rt}
}

// Write sends b with its taints through the custom native. Like the
// socket endpoint, a clean buffer travels as a passthrough frame; a
// custom transport may be message-oriented, so the frame is assembled
// contiguously (in a pooled buffer) rather than as two sends.
func (e *CustomEndpoint) Write(b taint.Bytes) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.agent.Mode() != tracker.ModeDista {
		e.agent.AddTraffic(len(b.Data), len(b.Data))
		return e.rt.SendRaw(b.Data)
	}
	if len(b.Data) == 0 {
		return e.rt.SendRaw(nil)
	}
	pre := 0
	if !e.wroteMagic {
		pre = wire.StreamMagicLen
	}
	clean := b.Clean()
	size := pre + wire.PassthroughFrameLen(len(b.Data))
	if !clean {
		size = pre + wire.GroupsFrameLen(len(b.Data)) + wire.EncodeSlack
	}
	buf := wire.GetBuf(size)
	defer wire.PutBuf(buf)
	out := *buf
	if pre > 0 {
		out = wire.AppendStreamMagic(out)
	}
	if clean {
		out = wire.AppendPassthroughFrame(out, b.Data)
	} else {
		var err error
		if out, err = appendGroupsFrame(e.agent, out, b); err != nil {
			return err
		}
	}
	e.agent.AddTraffic(len(b.Data), len(out))
	err := e.rt.SendRaw(out)
	if err == nil {
		e.wroteMagic = true
	}
	return err
}

// Read fills buf with data and taints from the custom native.
func (e *CustomEndpoint) Read(buf *taint.Bytes) (int, error) {
	if len(buf.Data) == 0 {
		return 0, nil
	}
	if e.agent.Mode() != tracker.ModeDista {
		return e.rt.RecvRaw(buf.Data)
	}
	e.rmu.Lock()
	defer e.rmu.Unlock()
	return e.rd.read(e.agent, e.rt.RecvRaw, buf, 0, len(buf.Data))
}

// customRegistry holds user-registered method rows.
var customRegistry struct {
	mu      sync.Mutex
	methods []Method
}

// RegisterCustomMethods announces user-instrumented native methods so
// they appear alongside the built-in Table I registry.
func RegisterCustomMethods(methods ...Method) {
	customRegistry.mu.Lock()
	defer customRegistry.mu.Unlock()
	customRegistry.methods = append(customRegistry.methods, methods...)
}

// ExtendedRegistry returns the built-in registry plus all registered
// custom methods.
func ExtendedRegistry() []Method {
	customRegistry.mu.Lock()
	defer customRegistry.mu.Unlock()
	out := make([]Method, 0, len(Registry)+len(customRegistry.methods))
	out = append(out, Registry...)
	out = append(out, customRegistry.methods...)
	return out
}
