package backend

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"

	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// Serve answers the Genie wire protocol on one framed connection until
// the peer disconnects or the server drains. It is safe to run one
// Serve per connection concurrently against the same Server.
//
// During Drain, a request already read off the wire is served and its
// reply delivered before the connection closes — in-flight work is
// never dropped mid-RPC.
func (s *Server) Serve(conn *transport.Conn) error {
	if !s.register(conn) {
		return nil // already draining: refuse the connection
	}
	defer s.unregister(conn)
	// The connection's resident step plans (transport/plan.go): decoded
	// graphs only, so they live and die with this loop and need nothing
	// from Crash or the epoch.
	var plans [transport.PlanSlots]*srg.Graph
	for {
		t, env, payload, err := conn.RecvEnv()
		if err != nil {
			if transport.IsClosed(err) {
				return nil
			}
			return err
		}
		s.setBusy(conn, true)
		// A non-zero envelope means the caller is tracing: the server's
		// span for this RPC parents under the client-side transport span,
		// stitching one tree across the process boundary.
		// Spans name the operation, not its encoding: a plan frame is an exec.
		op := t
		if t == transport.MsgExecPlan {
			op = transport.MsgExec
		}
		span := s.tracer.RemoteSpan(env.Trace, env.Span, "backend."+transport.KindName(op))
		span.SetAttrInt("payload_bytes", int64(len(payload)))
		rt, rp := s.handle(conn, plans[:], t, payload)
		span.SetAttrInt("reply_bytes", int64(len(rp)))
		span.End()
		err = conn.SendEnv(rt, env, rp)
		last := s.setBusy(conn, false)
		if err != nil {
			if transport.IsClosed(err) {
				return nil
			}
			return err
		}
		if last {
			return nil // drained: reply delivered, now hang up
		}
	}
}

// register tracks a live connection; it reports false when the server
// is draining (the connection must be refused).
func (s *Server) register(conn *transport.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.draining {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[*transport.Conn]bool)
	}
	s.conns[conn] = false
	return true
}

func (s *Server) unregister(conn *transport.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// setBusy flips a connection's in-flight flag; it reports whether the
// server is draining (so the Serve loop can exit after the reply).
func (s *Server) setBusy(conn *transport.Conn, busy bool) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if _, ok := s.conns[conn]; ok {
		s.conns[conn] = busy
	}
	return s.draining
}

// Drain begins a graceful shutdown of the serving side: new
// connections are refused, idle connections close immediately, and
// connections with a request in flight close right after delivering
// their reply. The resident store is untouched. Callers close the
// listener themselves; Listen returns once every Serve loop exits.
func (s *Server) Drain() {
	s.connMu.Lock()
	s.draining = true
	for conn, busy := range s.conns {
		if !busy {
			_ = conn.Close()
		}
	}
	s.connMu.Unlock()
}

func (s *Server) handle(conn *transport.Conn, plans []*srg.Graph, t transport.MsgType, payload []byte) (transport.MsgType, []byte) {
	fail := func(err error) (transport.MsgType, []byte) {
		return transport.MsgErr, transport.EncodeErr(err)
	}
	switch t {
	case transport.MsgPing:
		return transport.MsgPong, nil
	case transport.MsgHello:
		req, err := transport.DecodeHello(payload)
		if err != nil {
			return fail(err)
		}
		granted := req & s.WireFeatures()
		conn.SetFeatures(granted)
		return transport.MsgHelloOK, transport.EncodeHello(granted)
	case transport.MsgUpload:
		u, err := transport.DecodeUpload(payload)
		if err != nil {
			return fail(err)
		}
		// Dedup remembers the bytes as received (pre-quantization), so
		// the server-side hash always matches what the client hashed.
		if conn.Features()&transport.FeatDedup != 0 {
			s.rememberContent(u.Data)
		}
		ack, err := s.Upload(u.Key, s.maybeQuantize(u.Key, u.Data))
		if err != nil {
			return fail(err)
		}
		return transport.MsgUploadOK, transport.EncodeUploadOK(ack)
	case transport.MsgUploadRef:
		u, err := transport.DecodeUploadRef(payload)
		if err != nil {
			return fail(err)
		}
		data := s.contentFor(u.Hash)
		if data == nil {
			return fail(fmt.Errorf("backend: unknown content hash %x", u.Hash[:8]))
		}
		ack, err := s.Upload(u.Key, s.maybeQuantize(u.Key, data))
		if err != nil {
			return fail(err)
		}
		return transport.MsgUploadOK, transport.EncodeUploadOK(ack)
	case transport.MsgExec, transport.MsgExecPlan:
		// A plan frame names a graph resident in one of the connection's
		// slots; past the decode it is the same exec.
		var x *transport.Exec
		var err error
		switch {
		case t == transport.MsgExec:
			x, err = transport.DecodeExec(payload)
		case conn.Features()&transport.FeatPlan == 0:
			err = fmt.Errorf("backend: plan frame on a connection that was not granted resident plans")
		default:
			x, err = transport.DecodeExecPlan(payload, plans)
		}
		if err != nil {
			return fail(err)
		}
		// Resolve dedup bindings: hash refs inflate from the content
		// cache; fresh cache-hinted tensors are remembered after a
		// successful run (the client only counts them as server-known
		// once the exec succeeds).
		var cacheable []*tensor.Tensor
		for i := range x.Binds {
			b := &x.Binds[i]
			if b.Hash != ([transport.HashSize]byte{}) {
				data := s.contentFor(b.Hash)
				if data == nil {
					return fail(fmt.Errorf("backend: unknown content hash %x", b.Hash[:8]))
				}
				b.Inline = data
			} else if b.Cache && b.Inline != nil {
				cacheable = append(cacheable, b.Inline)
			}
		}
		ok, err := s.Exec(x)
		if err != nil {
			return fail(err)
		}
		for _, data := range cacheable {
			s.rememberContent(data)
		}
		return transport.MsgExecOK, transport.EncodeExecOK(ok)
	case transport.MsgFetch:
		f, err := transport.DecodeFetch(payload)
		if err != nil {
			return fail(err)
		}
		data, err := s.Lookup(f.Key, f.Epoch)
		if err != nil {
			return fail(err)
		}
		return transport.MsgTensor, transport.EncodeTensorMsg(data)
	case transport.MsgFree:
		f, err := transport.DecodeFetch(payload)
		if err != nil {
			return fail(err)
		}
		s.Free(f.Key)
		return transport.MsgFreeOK, nil
	case transport.MsgCrash:
		s.Crash()
		return transport.MsgCrashOK, nil
	case transport.MsgStats:
		return transport.MsgStatsOK, transport.EncodeStats(s.Stats())
	}
	return fail(fmt.Errorf("backend: unknown message type %d", t))
}

// Listen serves the protocol on a TCP listener until the listener closes.
// Each connection gets its own goroutine.
func (s *Server) Listen(l net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		raw, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if tc, ok := raw.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := transport.NewConn(raw, nil, nil)
			defer conn.Close()
			if err := s.Serve(conn); err != nil {
				log.Printf("backend: connection error: %v", err)
			}
		}()
	}
}
