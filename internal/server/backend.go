package server

import (
	"time"

	"spacejmp/internal/redis"
	"spacejmp/internal/urpc"
)

// Modeled cost of moving one command across the network edge into a worker,
// mirroring the baseline's socket model: one kernel crossing plus a
// per-cache-line copy of the payload. The RedisJMP fast path still elides
// the *server-side* socket hop the paper measures — this is only the edge
// the real TCP front-end adds — but charging it keeps the simulated cycle
// accounts honest about where bytes went. The backend's workers pay it
// before deciding where a command runs.
const (
	NetSyscall = 357 // enter/leave the kernel per recv or send
	NetPerLine = 200 // copy one cache line through the kernel
)

// EdgeCycles is the modeled cost of moving n payload bytes across the
// network edge in one direction.
func EdgeCycles(n int) uint64 {
	return NetSyscall + urpc.Lines(n)*NetPerLine
}

// Request is one parsed command in flight through a Backend: filled in by a
// connection reader, executed by whatever goroutine the backend routes it
// to, and collected by the connection writer once Finish is called. Replies
// preserve arrival order because the writer waits on requests in the order
// the reader issued them.
type Request struct {
	// Args is the parsed command (name first).
	Args []string
	// Cmd is Args resolved against the command table, once, when the
	// request is built; backends dispatch on it and never re-read the name.
	Cmd *redis.Command
	// Start is when the reader accepted the command; backends use it for
	// wall-latency accounting.
	Start time.Time
	// Readonly marks a request from a connection that opted into follower
	// reads via READONLY: backends may serve reads from a bounded-staleness
	// frozen view instead of the primary.
	Readonly bool
	// Deadline is the request's cycle budget: the simulated-core cycles the
	// backend may burn serving it before failing fast with a retryable
	// -DEADLINE instead of queueing doomed work. 0 means no deadline. Set
	// from the server's per-command default or the connection's DEADLINE
	// prefix command; the budget is armed against the serving worker's
	// cycle counter when execution starts (queue wait burns no cycles).
	Deadline uint64

	resp []byte
	done chan struct{}

	// settle, when set, runs in the connection writer with the finished
	// reply — the tenant layer's quota commit/rollback hook.
	settle func([]byte)
}

// NewRequest builds an in-flight request for a parsed command, resolving it
// against the command table.
func NewRequest(args []string) *Request {
	return newRequest(redis.Lookup(args), args)
}

// newRequest is NewRequest for a caller that already resolved the command.
func newRequest(cmd *redis.Command, args []string) *Request {
	return &Request{Args: args, Cmd: cmd, Start: time.Now(), done: make(chan struct{})}
}

// Finish publishes the reply and releases the connection writer waiting on
// it. Exactly one Finish per request.
func (r *Request) Finish(resp []byte) {
	r.resp = resp
	close(r.done)
}

// Wait blocks until Finish and returns the reply bytes.
func (r *Request) Wait() []byte {
	<-r.done
	return r.resp
}

// closedDone is a pre-closed channel for requests answered without a
// backend (busy rejections, QUIT, protocol errors).
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// inlineReply builds an already-answered request.
func inlineReply(resp []byte) *Request {
	return &Request{resp: resp, done: closedDone}
}

// Backend executes parsed commands against simulated state. The one
// production backend is the cluster router (internal/cluster), which cannot
// be imported from here; the interface also lets tests substitute a fake.
//
// The concurrency contract: Submit may be called from many connection
// goroutines at once, must never block on simulated state, and must return
// false instead of queueing without bound — the conn layer turns false into
// an immediate busy reply.
type Backend interface {
	// Bind associates a new connection with the backend and returns the
	// queue (shard, worker) id it landed on, for the accept trace.
	Bind(connID uint64) uint64
	// Submit hands a request to the backend. It returns false when the
	// backend is saturated; the request is then untouched and the caller
	// answers it busy.
	Submit(connID uint64, r *Request) bool
	// Close drains all in-flight requests, stops the backend's workers,
	// and destroys whatever simulated state it created. Called once, after
	// no further Submit can occur.
	Close() error
}
