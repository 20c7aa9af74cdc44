// Package server is the serving layer: a real TCP front-end speaking RESP
// over the SpaceJMP store. It is the point where true Go concurrency meets
// the simulated machine — many connection goroutines feed a Backend of
// workers, and each worker owns a core.Thread attached to RedisJMP VASes
// (§5.3), so every command runs the paper's fast path: switch into the
// server VAS, operate on the lockable segment directly, switch out. The
// backend is the cluster router in internal/cluster; a single store is a
// cluster of one co-resident node.
//
// The concurrency contract with the simulator is strict: a simulated core's
// cycle counter is not atomic, so exactly one goroutine — the worker that
// claimed it — may ever drive a given Thread. Connection goroutines never
// touch simulated state; they parse RESP, hand the backend what one buffer
// fill held as one batch over its bounded queues, and write the replies in
// arrival order. A saturated backend answers immediately with a RESP error
// (backpressure, never unbounded buffering); a full pipeline blocks the
// connection's reader, pushing the backpressure onto TCP itself.
package server

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spacejmp/internal/core"
	"spacejmp/internal/fault"
	"spacejmp/internal/stats"
	"spacejmp/internal/tenant"
)

// Config sizes the server. Zero values take the defaults below.
type Config struct {
	// QueueDepth and SegSize are unread — the backend sizes its own queues
	// and stores (cluster.Config) — and stay declared because bench/stack.go
	// sets them.
	QueueDepth int
	SegSize    uint64
	// PipelineDepth bounds the commands in flight per connection, and so
	// what one batch holds. When a connection has this many awaiting replies
	// its reader blocks, so a fast pipeliner is throttled by TCP flow control.
	PipelineDepth int
	// Tenants, when set, turns on multi-tenant serving: connections must
	// AUTH against this registry, keys are qualified into the tenant's
	// view, cross-view addresses pass capability checks, and quotas gate
	// admission. Nil keeps the single-tenant behavior unchanged.
	Tenants *tenant.Registry

	// DeadlineCycles is the per-command default deadline budget, in
	// simulated-core cycles; 0 (the default) stamps no deadline. A
	// connection overrides it with the DEADLINE <ms> prefix command.
	DeadlineCycles uint64
	// CyclesPerMilli converts the DEADLINE command's millisecond argument
	// to cycles. Defaults to the served machine's clock (GHz × 1e6).
	CyclesPerMilli uint64
}

func (c Config) withDefaults(ghz float64) Config {
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 32
	}
	if c.CyclesPerMilli == 0 {
		c.CyclesPerMilli = uint64(ghz * 1e6)
	}
	return c
}

// Server is a running RESP front-end.
type Server struct {
	cfg     Config
	obs     *stats.Sink           // never nil (NewWithBackend): accepts and teardowns trace through it
	ctr     *stats.ServerCounters // obs's server block
	faults  *fault.Registry
	backend Backend

	ln       net.Listener
	nextConn atomic.Uint64

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool

	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup

	shutdownOnce sync.Once
	shutdownErr  error
}

// NewWithBackend boots the front-end over an already-constructed backend
// and starts the accept loop on ln. The caller owns ln's address; the server
// owns closing it at Shutdown, and takes ownership of the backend: Shutdown
// closes it. A server always counts: on a machine with no stats sink it
// installs one (System.Sink), as cluster.New does.
func NewWithBackend(sys *core.System, ln net.Listener, cfg Config, b Backend) *Server {
	obs := sys.Sink()
	s := &Server{
		cfg:     cfg.withDefaults(sys.M.Cfg.GHz),
		obs:     obs,
		ctr:     obs.Server(),
		faults:  sys.M.Faults,
		backend: b,
		ln:      ln,
		conns:   map[net.Conn]struct{}{},
	}
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed (Shutdown) or fatally broken
		}
		if s.faults.Fire(fault.SrvAccept) {
			nc.Close()
			continue
		}
		id := s.nextConn.Add(1)
		qid := s.backend.Bind(id)
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		s.obs.ConnAccepted(id, qid)
		s.connWG.Add(1)
		go s.serveConn(id, nc)
	}
}

func (s *Server) dropConn(nc net.Conn) {
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	nc.Close()
}

// Shutdown drains the server: stop accepting, unblock connection readers,
// finish every in-flight command, then close the backend (its workers
// detach from shared state and exit their processes, handing cores and
// private segments to the kernel reaper, and the shared store itself is
// destroyed). After Shutdown returns, the only simulated memory still
// allocated is what existed before the backend was built — the leak tests
// hold the server to exactly that.
func (s *Server) Shutdown() error {
	s.shutdownOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		s.ln.Close()
		s.acceptWG.Wait()

		// Wake every connection reader blocked in Read; in-flight
		// requests still complete and their replies still flush.
		s.mu.Lock()
		for nc := range s.conns {
			nc.SetReadDeadline(time.Now())
		}
		s.mu.Unlock()
		s.connWG.Wait()

		// No reader can submit anymore; the backend drains its backlog
		// and tears down its simulated state.
		s.shutdownErr = s.backend.Close()
	})
	return s.shutdownErr
}
