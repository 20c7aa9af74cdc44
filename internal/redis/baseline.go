package redis

import (
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/urpc"
)

// Baseline Redis: a single-threaded server process owning the data,
// reached over UNIX domain sockets. The socket stack is modeled as a
// syscall plus a double copy through a kernel buffer per message — the
// communication overhead RedisJMP elides (§5.3).

// Socket cost model (cycles).
const (
	sockSyscall = kernel.SyscallCycles // enter/leave the kernel per send/recv
	sockStack   = 3800                 // socket layer work per message (locking, wakeup, poll)
	sockPerLine = 200                  // double copy of one cache line through the kernel
	serverLoop  = 500                  // event-loop dispatch per request (epoll, fd lookup)
	execCycles  = 600                  // hash-table operation on native memory

	// setPersist is the extra server-side work of a SET: object creation,
	// dict insertion, and the append-only-file write Redis performs on
	// mutations — the reason the paper's Figure 10b baseline sits far
	// below its GET throughput.
	setPersist = 60000
)

// sockMsg charges one socket message of n bytes to a core.
func sockMsg(c *hw.Core, n int) {
	c.AddCycles(sockSyscall + sockStack + uint64(urpc.Lines(n))*sockPerLine)
}

// BaselineServer is a single-threaded Redis instance pinned to one core.
type BaselineServer struct {
	core *hw.Core
	data map[string][]byte
}

// NewBaselineServer creates a server on the given core.
func NewBaselineServer(core *hw.Core) *BaselineServer {
	return &BaselineServer{core: core, data: map[string][]byte{}}
}

// ServerCore returns the core the server runs on.
func (s *BaselineServer) ServerCore() *hw.Core { return s.core }

// Handle processes one RESP request, charging the server core for the
// receive, parse, execute, and reply work.
func (s *BaselineServer) Handle(req []byte) []byte {
	sockMsg(s.core, len(req))
	s.core.AddCycles(serverLoop)
	args, err := DecodeCommand(req)
	if err != nil {
		return EncodeError(err.Error())
	}
	s.core.AddCycles(parseCycles)
	resp := s.exec(args)
	sockMsg(s.core, len(resp))
	return resp
}

// exec resolves the command through the command table, like every other
// layer, and answers the three the baseline serves; its DEL predates the
// table's integer reply and answers +OK or nil.
func (s *BaselineServer) exec(args []string) []byte {
	if len(args) == 0 {
		return EncodeError("empty command")
	}
	s.core.AddCycles(execCycles)
	cmd := Lookup(args)
	switch cmd.Op {
	case OpGet:
		v, ok := s.data[args[1]]
		if !ok {
			return EncodeBulk(nil)
		}
		return EncodeBulk(v)
	case OpSet:
		s.core.AddCycles(setPersist)
		s.data[args[1]] = []byte(args[2])
		return EncodeSimple("OK")
	case OpDel:
		if _, ok := s.data[args[1]]; ok {
			delete(s.data, args[1])
			return EncodeSimple("OK")
		}
		return EncodeBulk(nil)
	}
	return cmd.Refusal(args)
}

// BaselineClient is a redis-benchmark-style client talking to one server
// over the modeled socket.
type BaselineClient struct {
	core   *hw.Core
	server *BaselineServer
}

// NewBaselineClient binds a client core to a server.
func NewBaselineClient(core *hw.Core, server *BaselineServer) *BaselineClient {
	return &BaselineClient{core: core, server: server}
}

// do sends one command and waits for the reply, charging client-side
// socket costs and the wait for the server's processing.
func (c *BaselineClient) do(args ...string) ([]byte, bool, error) {
	req := EncodeCommand(args...)
	c.core.AddCycles(parseCycles)
	sockMsg(c.core, len(req))
	before := c.server.core.Cycles()
	resp := c.server.Handle(req)
	c.core.AddCycles(c.server.core.Cycles() - before) // blocked on the reply
	sockMsg(c.core, len(resp))
	return DecodeReply(resp)
}

// Get issues a GET.
func (c *BaselineClient) Get(key string) ([]byte, bool, error) {
	v, isNil, err := c.do("GET", key)
	if err != nil {
		return nil, false, err
	}
	return v, !isNil, nil
}

// Set issues a SET.
func (c *BaselineClient) Set(key string, val []byte) error {
	_, _, err := c.do("SET", key, string(val))
	return err
}
