package server

import (
	"sync"
	"time"

	"spacejmp/internal/kernel"
	"spacejmp/internal/redis"
	"spacejmp/internal/tenant"
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
	NetSyscall = kernel.SyscallCycles // enter/leave the kernel per recv or send
	NetPerLine = 200                  // copy one cache line through the kernel
)

// EdgeCycles is the modeled cost of moving n payload bytes across the
// network edge in one direction.
func EdgeCycles(n int) uint64 {
	return NetSyscall + urpc.Lines(n)*NetPerLine
}

// Request is one parsed command in flight through a Backend: filled in by a
// connection reader, executed by whatever goroutine the backend routes it
// to, and collected by the connection writer once its batch has got that far
// (Batch.Answered). Replies preserve arrival order because the writer walks
// batches, and the requests of each, in the order the reader issued them.
type Request struct {
	// Args is the parsed command (name first).
	Args []string
	// Cmd is Args resolved against the command table, once, when the
	// request is built; backends dispatch on it and never re-read the name.
	Cmd *redis.Command
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

	// charge is settled in the connection writer with the finished reply —
	// the tenant layer's quota commit or rollback.
	charge tenant.Charge

	// single is the batch of one a request built by NewRequest is submitted
	// as and waited on through; nil for a connection's requests, which
	// travel in their fill's batch.
	single *Batch
}

// Batch is the unit a connection hands a Backend: the commands one buffer
// fill held that need a backend, in arrival order. It crosses the backend's
// queue in one hop. The backend answers the requests in order with Finish
// and reports how far it has got with Answered — as often as it likes, and
// with len(Reqs) at the end — so that replies can go out while the rest of
// the batch still runs. A Batch must not be copied once handed over.
type Batch struct {
	Reqs []*Request
	// Start is when the reader handed the batch over; backends use it for
	// wall-latency accounting.
	Start time.Time
	// Out is the chunk the backend renders the batch's replies into first:
	// the connection's, kept from fill to fill. A backend that needs a larger
	// one stores it here, and the connection keeps that instead.
	Out []byte

	mu       sync.Mutex
	progress sync.Cond // on mu: answered moved
	answered int       // how many of Reqs are answered; -1 until the backend says
}

// NewBatch builds the batch of reqs, stamped now.
func NewBatch(reqs []*Request) *Batch {
	b := &Batch{}
	b.init(reqs)
	return b
}

func (b *Batch) init(reqs []*Request) {
	b.Reqs, b.Start, b.answered = reqs, time.Now(), -1
	b.progress.L = &b.mu
}

// Answered publishes that the first n requests have been answered.
func (b *Batch) Answered(n int) {
	b.mu.Lock()
	b.answered = n
	b.progress.Broadcast() // under mu: after the last, b is no longer the backend's
	b.mu.Unlock()
}

// Wait blocks until the first n requests have been answered; Wait(0) until
// the backend has at least taken the batch up.
func (b *Batch) Wait(n int) {
	b.mu.Lock()
	for b.answered < n {
		b.progress.Wait()
	}
	b.mu.Unlock()
}

// NewRequest builds an in-flight request for a parsed command, resolving it
// against the command table, together with the batch of one it is submitted
// as (Single) and waited on through (Wait): one allocation for all of it.
func NewRequest(args []string) *Request {
	s := &struct {
		Request
		batch Batch
		self  [1]*Request
	}{Request: Request{Args: args, Cmd: redis.Lookup(args)}}
	s.self[0] = &s.Request
	s.batch.init(s.self[:])
	s.single = &s.batch
	return &s.Request
}

// Single returns the batch of one a NewRequest request is submitted as.
func (r *Request) Single() *Batch { return r.single }

// Finish publishes the reply: once per request, before the Answered that
// covers it.
func (r *Request) Finish(resp []byte) { r.resp = resp }

// Reply returns the published reply, there once the request is answered.
func (r *Request) Reply() []byte { return r.resp }

// Wait blocks until the batch of one the request was submitted as is answered
// and returns the reply bytes.
func (r *Request) Wait() []byte {
	r.single.Wait(1)
	return r.resp
}

// Backend executes parsed commands against simulated state. The one
// production backend is the cluster router (internal/cluster), which cannot
// be imported from here; the interface also lets tests substitute a fake.
//
// The concurrency contract: SubmitBatch may be called from many connection
// goroutines at once, must never block on simulated state, and must refuse
// instead of queueing without bound — the conn layer turns a refusal into an
// immediate busy reply. Once a batch's last Answered is published, the batch,
// its requests and its Out are the connection's again, to reuse for its next
// fill: the backend reads and writes none of them after it, len(b.Reqs)
// included. A request's arguments are its own, and may be kept.
type Backend interface {
	// Bind associates a new connection with the backend and returns the
	// queue (shard, worker) id it landed on, for the accept trace.
	Bind(connID uint64) uint64
	// SubmitBatch hands the backend a batch. Admission is counted in
	// commands: the backend takes as many requests off the front of b.Reqs
	// as it has room for, cuts b.Reqs down to those and returns how many —
	// 0 when it is saturated, and b is then not queued at all. The requests
	// it did not take are untouched and the caller answers them busy.
	SubmitBatch(connID uint64, b *Batch) int
	// Close drains all in-flight requests, stops the backend's workers,
	// and destroys whatever simulated state it created. Called once, after
	// no further SubmitBatch can occur.
	Close() error
}
